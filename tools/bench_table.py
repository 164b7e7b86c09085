"""Print ROADMAP's measurement table from ``python -m lstaq bench``.

Run it from any checkout as::

    python3 tools/bench_table.py --sizes 128,512,1024 --repeat 3

For every bench family it runs ``python -m lstaq bench FAMILY SIZES``
``--repeat`` times, each in a fresh process on this checkout's ``src``, and
prints one Markdown row per family: the best wall seconds at each size, the
pre/post transitions at the largest size, and the highest peak resident
memory of the runs, which the largest size sets.  As many times again, a
fresh process translates the family's assertion groups at the largest size
and times ``write_lsta`` of every result in CPU seconds: the row gives the
best of these write times and the highest peak of these processes.  Each
run's peak is read from its own process with ``os.wait4``, so runs do not
mix.  Running it on two checkouts in the same hour gives a before and after
table from one command.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from lstaq.build import translate  # noqa: E402
from lstaq.cli import BENCH_MIN_SIZE, bench_groups  # noqa: E402
from lstaq.lsta import write_lsta  # noqa: E402
from lstaq.parser import parse  # noqa: E402


def child(args: list[str]) -> tuple[str, float]:
    """The standard output of a fresh process on this checkout's ``src``, and
    its peak resident memory in MB."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)}
    with subprocess.Popen([sys.executable, *args], env=env, stdout=subprocess.PIPE,
                          text=True) as proc:
        out = proc.stdout.read()
        _pid, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode:
        raise subprocess.CalledProcessError(proc.returncode, args, out)
    return out, usage.ru_maxrss / 1024  # KiB on Linux


def bench(family: str, sizes: str) -> tuple[dict[int, tuple[float, int, int]], float]:
    """One ``lstaq bench`` run: seconds, pre and post transitions per size,
    and the run's peak resident memory in MB."""
    out, peak = child(["-m", "lstaq", "bench", family, sizes])
    rows = {}
    for line in out.splitlines()[1:]:
        n, _qubits, pre, post, seconds = line.split()
        rows[int(n)] = (float(seconds), int(pre), int(post))
    return rows, peak


def write_seconds(family: str, n: int) -> float:
    """CPU seconds of ``write_lsta`` of every assertion of ``family`` at size
    ``n``, each group translated as ``lstaq bench`` translates it."""
    seconds = 0.0
    for group in bench_groups(family, n):
        result = translate([parse(text) for text in group])
        start = time.process_time()
        for ar in result.assertions:
            write_lsta(ar.automaton, result.qubits)
        seconds += time.process_time() - start
    return seconds


def write(family: str, n: int) -> tuple[float, float]:
    """One write run in a fresh process: its seconds and peak in MB."""
    out, peak = child([str(Path(__file__).resolve()), "--write-child", family, str(n)])
    return float(out), peak


def table(sizes: list[int], repeat: int) -> list[str]:
    """The table's lines, one row per family after the header."""
    largest = max(sizes)
    heads = ([f"n={n} s" for n in sizes]
             + [f"transitions at {largest} (pre/post)", f"peak RSS at {largest} (MB)",
                f"write s at {largest}", f"write peak RSS at {largest} (MB)"])
    lines = ["| family     |" + "".join(f" {h} |" for h in heads),
             "|------------|" + "".join("-" * (len(h) + 1) + ":|" for h in heads)]
    arg = ",".join(map(str, sizes))
    for family in BENCH_MIN_SIZE:
        runs, peaks = zip(*(bench(family, arg) for _ in range(repeat)))
        writes, write_peaks = zip(*(write(family, largest) for _ in range(repeat)))
        cells = [f"{min(run[n][0] for run in runs):.3f}" for n in sizes]
        _s, pre, post = runs[0][largest]
        cells += [f"{pre} / {post}", f"{max(peaks):.1f}",
                  f"{min(writes):.3f}", f"{max(write_peaks):.1f}"]
        lines.append(f"| {family:<10} |" + "".join(f" {c:>{len(h)}} |" for c, h in zip(cells, heads)))
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--sizes", default="128,512,1024",
                   help="comma-separated sizes (default: 128,512,1024)")
    p.add_argument("--repeat", type=int, default=3,
                   help="runs per family; each size keeps its best (default: 3)")
    # The table's own write runs: print write_seconds(FAMILY, N) and exit.
    p.add_argument("--write-child", nargs=2, metavar=("FAMILY", "N"), help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.write_child:
        family, n = args.write_child
        print(write_seconds(family, int(n)))
        return 0
    try:
        sizes = [int(x) for x in args.sizes.split(",") if x.strip()]
    except ValueError:
        p.error(f"sizes must be comma-separated integers, got {args.sizes!r}")
    if not sizes or args.repeat < 1:
        p.error("need at least one size and one run")
    print("\n".join(table(sizes, args.repeat)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
