"""Print each pipeline stage's CPU time per pass over one workload's jobs.

Run it from any checkout as::

    python3 tools/stage_times.py --workload verify --seed 5 --passes 5

It loads ``src/lstaq`` of ``--checkout`` (this one by default) as the
package ``lstaq_stages`` and builds the workload's jobs with
``perfbench/workloads.py`` of this checkout, with ``lstaq`` and
``lstaq.lsta`` aliased to the loaded package while they are built, as
``tools/ab_inproc.py`` does.  It then wraps each stage below under the
module attribute its caller looks it up by (``build.tensor_chain``, not
``lsta.tensor_chain``, as ``build`` imported it by name) and runs the
passes.  A stage's time is inclusive: it counts the stages it calls, and a
call nested in a call of the same stage counts once.  A stage its checkout
does not have is left out.  Each row prints the stage's CPU ms per pass, its
share of a pass and its calls per pass; the last row is the whole pass.
``--jobs PREFIX`` times only the jobs whose label starts with ``PREFIX``,
as in ``tools/ab_inproc.py`` (``--workload wide --jobs mctoffoli`` times
the mctoffoli jobs at both sizes).

In place of a workload, ``--family F --sizes N[,N...]`` times what
``python -m lstaq bench F N[,N...]`` runs, at sizes up to the ceiling::

    python3 tools/stage_times.py --family mctoffoli --sizes 16384 --passes 3

It has one job per group that ``cli.bench_groups`` gives at each size,
labelled ``F/N``: the job parses the group's sources and translates them
in one call, and writes nothing.
"""

from __future__ import annotations

import argparse
import functools
import gc
import importlib
import sys
import time
from collections import defaultdict
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

from ab_inproc import build_jobs, load, run_job  # noqa: E402

CLOCK = time.process_time

# (label, module, attribute), in pipeline order.  The front end is every
# step of ``build._translate`` before the qubit permutation.  The jobs call
# ``write_lsta`` and ``membership`` on the package itself.
STAGES = (
    ("parse", "", "parse"),
    ("infer_lengths", "ast", "infer_lengths"),
    ("check_well_formed", "ast", "check_well_formed"),
    ("check_constrained_vars_occur", "build", "_check_constrained_vars_occur"),
    ("check_qubit_count", "ast", "check_qubit_count"),
    ("FreshNamer.for_asts", "preprocess", "FreshNamer.for_asts"),
    ("canonicalize", "build", "canonicalize"),
    ("check_inferable", "ast", "check_inferable"),
    ("tensor_alignment_check", "build", "tensor_alignment_check"),
    ("variable_alignment_check", "build", "variable_alignment_check"),
    ("constant_abstraction", "build", "constant_abstraction"),
    ("build_dependency_graph", "build", "build_dependency_graph"),
    ("compute_slot_order", "build", "compute_slot_order"),
    ("qubit_permutation", "build", "qubit_permutation"),
    ("project_setP", "build", "project_setP"),
    ("expand_qubit_slices", "build", "expand_qubit_slices"),
    ("build_setq_lsta", "build", "build_setq_lsta"),
    ("tensor_chain", "build", "tensor_chain"),
    ("map_leaves", "build", "map_leaves"),
    ("union_all", "build", "union_all"),
    ("validate", "build", "validate"),
    ("measure", "build", "measure"),
    ("write_lsta", "", "write_lsta"),
    ("oracle._denote", "oracle", "_denote"),
    ("permute_state", "oracle", "permute_state"),
    ("enumerate_language", "lsta", "enumerate_language"),
    ("sample_thetas", "oracle", "sample_thetas"),
    ("membership", "", "membership"),
)


def wrap(pkg, totals: dict, calls: dict) -> list[str]:
    """Wrap every stage ``pkg`` has; returns the labels wrapped."""
    wrapped = []
    for label, module, attr in STAGES:
        owner = getattr(pkg, module) if module else pkg
        *path, name = attr.split(".")
        for step in path:
            owner = getattr(owner, step, None)
        fn = getattr(owner, name, None)
        if fn is None:
            continue
        setattr(owner, name, _timed(fn, label, totals, calls))
        wrapped.append(label)
    return wrapped


def _timed(fn, label: str, totals: dict, calls: dict):
    depth = 0

    def timed(*args, **kwargs):
        nonlocal depth
        calls[label] += 1
        if depth:
            return fn(*args, **kwargs)
        depth += 1
        t0 = CLOCK()
        try:
            return fn(*args, **kwargs)
        finally:
            totals[label] += CLOCK() - t0
            depth -= 1
    return timed


def family_jobs(pkg, family: str, sizes: list[int]) -> list:
    """One job per group that ``lstaq bench`` translates at each size."""
    bench_groups = importlib.import_module(f"{pkg.__name__}.cli").bench_groups
    return [SimpleNamespace(label=f"{family}/{n}", run=functools.partial(_translate, pkg, group))
            for n in sizes for group in bench_groups(family, n)]


def _translate(pkg, group: list[str]) -> bool:
    """Parse and translate one group through the package's own names, so
    the wrapped stages see the calls."""
    pkg.translate([pkg.parse(src) for src in group])
    return True


def rows(labels: list[str], totals: dict, calls: dict, passes: int,
         pass_s: float) -> list[str]:
    lines = [f"{'stage':<30} {'ms/pass':>9} {'share':>7} {'calls/pass':>11}"]
    for label in labels:
        ms = 1e3 * totals[label] / passes
        lines.append(f"{label:<30} {ms:>9.2f} {totals[label] / pass_s:>7.1%}"
                     f" {calls[label] / passes:>11.0f}")
    lines.append(f"{'pass':<30} {1e3 * pass_s / passes:>9.2f} {1:>7.1%}"
                 f" {'':>11}")
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--checkout", type=Path, default=ROOT,
                   help="the checkout whose src/lstaq is timed")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--workload", choices=("wide", "cases", "verify"))
    source.add_argument("--family", help="a bench family, timed at --sizes")
    p.add_argument("--sizes", help="comma-separated sizes for --family")
    p.add_argument("--seed", type=int, default=5)
    p.add_argument("--passes", type=int, default=5)
    p.add_argument("--jobs", default="", metavar="PREFIX",
                   help="time only the jobs whose label starts with PREFIX")
    args = p.parse_args(argv)
    if args.family:
        try:
            sizes = [int(x) for x in (args.sizes or "").split(",") if x.strip()]
        except ValueError:
            p.error(f"sizes must be comma-separated integers, got {args.sizes!r}")
        if not sizes:
            p.error("--family needs --sizes")
    sys.path.insert(0, str(ROOT / "perfbench"))
    pkg = load(args.checkout, "lstaq_stages")
    if args.family:
        jobs = [job for job in family_jobs(pkg, args.family, sizes)
                if job.label.startswith(args.jobs)]
        title = f"{args.family}, sizes {','.join(map(str, sizes))}"
    else:
        jobs = build_jobs(pkg, args.workload, args.seed, args.jobs)
        title = f"{args.workload}, seed {args.seed}"
    if not jobs:
        raise SystemExit(f"no {args.family or args.workload} job label starts with {args.jobs!r}")
    gc.collect()
    gc.freeze()
    totals: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    labels = wrap(pkg, totals, calls)
    pass_s = sum(run_job(job) for _ in range(args.passes) for job in jobs)
    print(f"{title}, {len(jobs)} jobs a pass,"
          f" {args.passes} passes, inclusive CPU time"
          + (f", labels starting {args.jobs}" if args.jobs else ""))
    print("\n".join(rows(labels, totals, calls, args.passes, pass_s)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
