"""Time two checkouts' lstaq on one workload's jobs, interleaved in one process.

Run it from any checkout as::

    python3 tools/ab_inproc.py --a ../parent --b . --workload cases --seed 5 --passes 20

It loads ``src/lstaq`` of checkout A as the package ``lstaq_a`` and that of
checkout B as ``lstaq_b``, side by side, and checkout A a second time as
``lstaq_a2``, the A/A control.  Each side's jobs are built by
``perfbench/workloads.py`` of this checkout, with ``lstaq`` and
``lstaq.lsta`` aliased to that side's modules while they are built, so
all sides run the same inputs.  It then times passes over the jobs in CPU
seconds: each job runs on the three sides back to back, the side that goes
first rotating by one a job and a pass, and a side's pass time is the sum
of its job times, so drift within a pass falls on every side alike.
It prints each side's min and median pass time and the quartiles of the
paired ratios B/A and A2/A, with how many passes the numerator was
faster.  A2 runs A's code from its own module objects, so A2/A shows how
far two copies of one program read apart here: a B/A median inside A2/A's
quartiles is no effect.  After the three sides one more copy of A is
loaded, with its jobs, and never timed: the side loaded last reads fast
(on a shared 2-vCPU VM, with one checkout on every side, A2/A read
0.994-0.999 on ``verify``, A2 faster in 17-27 of 30 passes), so the extra
copy takes that place and no timed side holds it.  Pairing job times taken back to back cancels
most of a shared machine's drift, so effects of a few percent show in 20
passes where separate processes need many runs.
``--jobs PREFIX`` times only the jobs whose label starts with ``PREFIX``
(``--workload verify --jobs check/random`` times the differential checks
of random specs), so a change to one layer can be timed on the jobs that
reach it.

All heaps live in one process, so each side's cyclic collections also
walk the other sides' objects, and a side that allocates more triggers
collections the others pay for.  GC timings here are distorted: measure
a change to collector behaviour with ``perfbench/run.py`` instead.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load(checkout: Path, name: str):
    """Import ``checkout/src/lstaq`` as the top-level package ``name``."""
    src = checkout.resolve() / "src" / "lstaq"
    spec = importlib.util.spec_from_file_location(
        name, src / "__init__.py", submodule_search_locations=[str(src)])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    return pkg


def build_jobs(pkg, workload: str, seed: int, prefix: str = "") -> list:
    """One side's perfbench jobs whose label starts with ``prefix``, built
    with ``lstaq`` aliased to ``pkg``."""
    from workloads import build

    names = ("lstaq", "lstaq.lsta")
    saved = {n: sys.modules.get(n) for n in names}
    sys.modules.update({"lstaq": pkg, "lstaq.lsta": pkg.lsta})
    try:
        bench = build(pkg, workload, seed)
    finally:
        for n, mod in saved.items():
            if mod is None:
                sys.modules.pop(n, None)
            else:
                sys.modules[n] = mod
    if bench.errors:
        raise SystemExit(f"{pkg.__name__}: {bench.errors[0]}")
    return [job for job in bench.jobs if job.label.startswith(prefix)]


def run_job(job) -> float:
    """CPU seconds of one job; a job with wrong output stops the run."""
    t0 = time.process_time()
    ok = job.run()
    took = time.process_time() - t0
    if not ok:
        raise SystemExit(f"job {job.label} gave wrong output")
    return took


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def compare(sides: dict[str, list], passes: int) -> dict[str, list[float]]:
    """Pass times per side, each the sum of the side's job times.

    Each job runs on every side back to back, and job ``i`` of pass ``k``
    starts ``i + k`` sides further along, so every side goes first equally
    often and drift within a pass falls on all sides alike.
    """
    names = list(sides)
    rows = list(zip(*sides.values()))
    if any(len(jobs) != len(rows) for jobs in sides.values()):
        raise SystemExit("the sides built different numbers of jobs")
    times: dict[str, list[float]] = {name: [] for name in names}
    for k in range(passes):
        took = [0.0] * len(names)
        for i, row in enumerate(rows):
            for j in range(len(names)):
                side = (i + k + j) % len(names)
                took[side] += run_job(row[side])
        for name, t in zip(names, took):
            times[name].append(t)
    return times


def report(times: dict[str, list[float]]) -> list[str]:
    lines = [f"{side}: min {min(ts):.4f} s  median {statistics.median(ts):.4f} s"
             f"  ({len(ts)} passes)" for side, ts in times.items()]
    for side in ("B", "A2"):
        ratios = [x / a for a, x in zip(times["A"], times[side])]
        q1, q2, q3 = quartiles(ratios)
        faster = sum(r < 1 for r in ratios)
        lines.append(f"{side}/A: q1 {q1:.3f}  median {q2:.3f}  q3 {q3:.3f}"
                     f"  ({side} faster in {faster} of {len(ratios)})")
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--a", type=Path, required=True, help="checkout A (the baseline)")
    p.add_argument("--b", type=Path, required=True, help="checkout B (the change)")
    p.add_argument("--workload", required=True, choices=("wide", "cases", "verify"))
    p.add_argument("--seed", type=int, default=5)
    p.add_argument("--passes", type=int, default=20)
    p.add_argument("--jobs", default="", metavar="PREFIX",
                   help="time only the jobs whose label starts with PREFIX")
    args = p.parse_args(argv)
    sys.path.insert(0, str(ROOT / "perfbench"))
    sides = {side: build_jobs(load(checkout, name), args.workload, args.seed, args.jobs)
             for side, checkout, name in (("A", args.a, "lstaq_a"), ("B", args.b, "lstaq_b"),
                                          ("A2", args.a, "lstaq_a2"))}
    # Loaded last, so that no timed side is (see the module docstring).
    _untimed = build_jobs(load(args.a, "lstaq_a3"), args.workload, args.seed, args.jobs)
    if not sides["A"]:
        raise SystemExit(f"no {args.workload} job label starts with {args.jobs!r}")
    # What the jobs keep is frozen out of the collector's scans, as the
    # harness does after its set-up.
    gc.collect()
    gc.freeze()
    title = f"{args.workload}, seed {args.seed}, {len(sides['A'])} jobs a pass"
    print(title + (f", labels starting {args.jobs}" if args.jobs else ""))
    print("\n".join(report(compare(sides, args.passes))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
