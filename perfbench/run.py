"""lstaq benchmark: one closed-loop client, one workload per run.

Usage, from the repository root::

    python3 perfbench/run.py --workload wide --seed 1 --seconds 10 --trace 0

Workloads (see ``workloads.py`` for what one job is):

* ``wide``    the five families at n=32 and n=64 (65-512 qubits per job);
              the tensor fold over many qubits does almost all the work.
* ``cases``   pre/post pairs of 1-bit ``!=`` constraint graphs over 5-8
              variables; up to 2^k slice cases per slice go through the
              union fold, and tensor is hardly used.
* ``verify``  differential checks of random specs at 1-3 qubits, with
              symbolic amplitudes and ``bigU``, and of the families at
              n=2..4 (5-13 qubits), plus membership verdicts at 9-13
              qubits; the oracle layer does most of the work.

The run measures whole passes over the workload's jobs, one job at a time
from this single process, until ``--seconds`` have passed (at least three
passes).  Each job's output is checked.  Times are CPU seconds of the
process (see ``spans.CLOCK``), and each job's time is its median over the
passes.  Job times are then scaled to a reference speed: a fixed speed
probe runs between jobs, and every job time is multiplied by
``PROBE_REF_S`` over the probe's median time in the run.  On a shared
2-vCPU virtual machine the same job ran up to half again as fast in some
minutes as in others; the probe slows and speeds up with it, so the
scaled figures differ less between runs.  The unscaled figures are printed as comments.
With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics:

``setup_s``        median over three fresh processes of the CPU time to
                   start, import lstaq, generate the inputs and run one
                   warm-up pass (not scaled);
``jobs_per_s``     jobs completed per second;
``qubits_per_s``   qubits translated per second (each job counts the qubit
                   count of its translations);
``job_ms_p50``, ``job_ms_p90``   percentiles of the per-job times;
``growth_ratio``   mean job time on the workload's larger inputs over its
                   smaller ones, where the size parameter doubles: n=64
                   over n=32 (wide), 8 over 7 variables, i.e. twice the
                   slice cases (cases), family size 4 over 2 (verify);
                   2.0 means cost linear in that parameter;
``transitions_out`` transitions the workload's translations emit per pass;
``peak_rss_mb``    peak resident memory of the measuring process.

With ``--trace 1`` the run measures untraced for half the time, then for
the other half with every public lstaq function wrapped in a span, and reports the per-layer self
times and counts per pass, plus the tracing overhead.  Spans are written
to ``.bench_out/`` at the end.

Each workload runs in fresh processes, so memory peaks and collector
counters of one run never leak into another.  Exit status is non-zero,
with no result line, if lstaq cannot be imported or a run breaks.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("wide", "cases", "verify")
SETUP_PROCESSES = 3
MIN_PASSES = 3
PROBE_ITERATIONS = 5_000
PROBE_REF_S = 0.010
PROBE_EVERY_S = 0.25
DEADLINE_S = 170.0
START = time.perf_counter()


def _args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--role", choices=("main", "setup", "measure"),
                   default="main", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# Worker processes.
# ---------------------------------------------------------------------------


def speed_probe() -> float:
    """CPU seconds of a fixed pure-Python loop of dict, tuple and frozenset
    work, the kind of work lstaq does."""
    from spans import CLOCK

    t0 = CLOCK()
    acc: dict = {}
    rows = []
    for i in range(PROBE_ITERATIONS):
        key = (i % 601, i % 7)
        s = acc.get(key)
        acc[key] = frozenset((i % 5, i % 3)) if s is None else s | {i % 11}
        rows.append((key, i))
    sorted(rows, key=lambda r: (r[0][1], -r[1]))
    return CLOCK() - t0


def measure(jobs, seconds: float, rec=None) -> dict:
    """Closed loop over whole passes until ``seconds`` have gone by.

    At least ``MIN_PASSES`` passes run, so every job has a median time.
    The speed probe runs at the start and end of every pass and between
    jobs after every ``PROBE_EVERY_S`` of job time.
    """
    from spans import CLOCK

    times: list[list[float]] = [[] for _ in jobs]
    probes: list[float] = []
    failures: dict[str, str] = {}
    failed = passes = 0
    start = time.perf_counter()
    while passes < MIN_PASSES or time.perf_counter() - start < seconds:
        since = PROBE_EVERY_S
        for i, job in enumerate(jobs):
            if since >= PROBE_EVERY_S:
                probes.append(speed_probe())
                since = 0.0
            if rec is not None:
                rec.job = i
                span = rec.open("job")
            t0 = CLOCK()
            try:
                ok = job.run()
            except Exception as exc:  # any exception fails the job
                ok = False
                failures.setdefault(job.label, f"{type(exc).__name__}: {exc}")
            t = CLOCK() - t0
            if rec is not None:
                rec.close(span)
            times[i].append(t)
            since += t
            if not ok:
                failed += 1
                failures.setdefault(job.label, "wrong output")
        probes.append(speed_probe())
        passes += 1
    return {"times": times, "probe_s": statistics.median(probes),
            "passes": passes, "attempted": passes * len(jobs),
            "failed": failed, "failures": failures}


def end_to_end(jobs, run: dict, scale: bool = True) -> dict:
    """Metrics from each job's median time over the run's passes.

    A pass is timed as the sum of its jobs' medians, so a stall that hits
    one execution of a job does not move the result.
    """
    factor = PROBE_REF_S / run["probe_s"] if scale else 1.0
    med = [statistics.median(t) * factor for t in run["times"]]
    pass_s = sum(med)
    ms = [t * 1e3 for t in med]
    side: dict[str, list[float]] = {"small": [], "large": []}
    for job, t in zip(jobs, med):
        if job.group is not None:
            side[job.group].append(t)
    return {
        "jobs_per_s": (len(jobs) / pass_s, "1/s"),
        "qubits_per_s": (sum(j.qubits for j in jobs) / pass_s, "1/s"),
        "job_ms_p50": (statistics.median(ms), "ms"),
        "job_ms_p90": (statistics.quantiles(ms, n=10)[8], "ms"),
        "growth_ratio": (statistics.fmean(side["large"])
                         / statistics.fmean(side["small"]), "ratio"),
        "transitions_out": (sum(j.transitions for j in jobs), "count"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def _rate(run: dict) -> float:
    """Jobs per second from the jobs' median times."""
    return len(run["times"]) / sum(statistics.median(t) for t in run["times"])


# Per-layer metric -> (span name, "self" or "calls"), per pass.
SPAN_METRICS = {
    "lsta.tensor_self_s": ("lsta.tensor", "self"),
    "lsta.tensor_calls": ("lsta.tensor", "calls"),
    "lsta.validate_s": ("lsta.validate", "self"),
    "lsta.validate_calls": ("lsta.validate", "calls"),
    "lsta.union_self_s": ("lsta.union", "self"),
    "lsta.union_calls": ("lsta.union", "calls"),
    "build.state_self_s": ("build.state", "self"),
    "qubit_reorder.self_s": ("qubit_reorder", "self"),
    "lsta.substitute_state_s": ("lsta.substitute_state", "self"),
    "lsta.enumerate_s": ("lsta.enumerate", "self"),
    "oracle.denote_s": ("oracle.denote", "self"),
    "oracle.sample_thetas_s": ("oracle.sample_thetas", "self"),
    "oracle.check_self_s": ("oracle.check", "self"),
    "lsta.membership_s": ("lsta.membership", "self"),
    "lsta.membership_calls": ("lsta.membership", "calls"),
    "parser.self_s": ("parser", "self"),
    "ast.self_s": ("ast", "self"),
    "preprocess.self_s": ("preprocess", "self"),
    "var_reorder.self_s": ("var_reorder", "self"),
    "lsta.map_leaves_s": ("lsta.map_leaves", "self"),
    "lsta.write_s": ("lsta.write", "self"),
    "build.translate_self_s": ("build.translate", "self"),
    "trace.uncovered_s": ("job", "self"),
}
COUNT_METRICS = (
    "lsta.tensor_in_transitions", "lsta.validate_transitions",
    "lsta.union_in_transitions", "qubit_reorder.slice_cases",
    "amplitude.poly_substitute_calls", "lsta.bytes_out",
    "build.peak_transitions", "runtime.gc_s", "runtime.gc_gen2",
)


def per_layer(rec, untraced: dict, traced: dict) -> dict:
    from spans import self_times

    passes = traced["passes"]
    st = self_times(rec.spans)
    out = {}
    for metric, (span, what) in SPAN_METRICS.items():
        total, calls = st.get(span, (0.0, 0))
        if what == "self":
            out[metric] = (total / passes, "s")
        else:
            out[metric] = (calls / passes, "count")
    for metric in COUNT_METRICS:
        unit = ("s" if metric.endswith("_s") else
                "bytes" if metric.endswith("bytes_out") else "count")
        value = rec.counts.get(metric, 0)
        # The peak is a maximum, not a sum over passes.
        out[metric] = (value if metric == "build.peak_transitions"
                       else value / passes, unit)
    out["trace.job_s"] = (sum(map(sum, traced["times"])) / passes, "s")
    out["trace.layers_s"] = (
        sum(v[0] for k, v in st.items() if k != "job") / passes, "s")
    out["trace.spans"] = (len(rec.spans) / passes, "count")
    out["trace.overhead"] = (_rate(untraced) / _rate(traced) - 1.0, "ratio")
    return out


def worker(args) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import lstaq
    from workloads import build

    bench = build(lstaq, args.workload, args.seed)
    # CPU time of this process since it started (see spans.CLOCK).
    setup_s = time.process_time()
    if args.role == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0
    errors = list(bench.errors)
    for check in bench.checks:
        errors += check()
    # What the harness keeps (inputs, expected outputs, automata for the
    # verdicts) is frozen out of the collector's scans: it differs with the
    # seed, and a plain compiler process would not hold it.
    gc.collect()
    gc.freeze()
    # A traced run splits its time between an untraced and a traced half.
    seconds = args.seconds / 2 if args.trace else args.seconds
    untraced = measure(bench.jobs, seconds)
    result = {"setup_s": setup_s, "errors": errors,
              "attempted": untraced["attempted"],
              "failed": untraced["failed"],
              "failures": untraced["failures"],
              "jobs": len(bench.jobs),
              "passes": untraced["passes"]}
    if args.trace:
        from spans import Recorder

        rec = Recorder()
        rec.install()
        try:
            traced = measure(bench.jobs, seconds, rec)
        finally:
            rec.uninstall()
        outdir = ROOT / ".bench_out"
        outdir.mkdir(exist_ok=True)
        rec.write(outdir / f"trace-{args.workload}-{args.seed}.jsonl")
        result["attempted"] += traced["attempted"]
        result["failed"] += traced["failed"]
        result["failures"].update(traced["failures"])
        result["metrics"] = per_layer(rec, untraced, traced)
    else:
        result["metrics"] = end_to_end(bench.jobs, untraced)
        result["unscaled"] = end_to_end(bench.jobs, untraced, scale=False)
    result["probe_ms"] = untraced["probe_s"] * 1e3
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# The main process: never imports lstaq, only starts and reads workers.
# ---------------------------------------------------------------------------


def _spawn(args, role: str) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--role", role]
    left = DEADLINE_S - (time.perf_counter() - START)
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=max(left, 1.0))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{role} process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    args = _args(argv)
    if args.role != "main":
        return worker(args)
    if not (ROOT / "src" / "lstaq" / "__init__.py").is_file():
        print(f"error: no lstaq sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        setups = []
        if not args.trace:
            setups = [_spawn(args, "setup") for _ in range(SETUP_PROCESSES - 1)]
        res = _spawn(args, "measure")
    except subprocess.TimeoutExpired:
        print("error: benchmark run exceeded its deadline", file=sys.stderr)
        return 1
    metrics = res["metrics"]
    if not args.trace:
        setups.append(res)
        metrics["setup_s"] = (statistics.median(x["setup_s"] for x in setups),
                              "s")

    print(f"# workload {args.workload}, seed {args.seed}: {res['jobs']} jobs"
          f" a pass, {res['passes']} passes; latencies are per-job medians"
          f" over the passes ({res['jobs']} samples)")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name:32} {value:14.6f} {unit}")
    print(f"# speed probe median {res['probe_ms']:.3f} ms CPU"
          f" (job times are scaled to {PROBE_REF_S * 1e3:g} ms)")
    for name, (value, unit) in sorted(res.get("unscaled", {}).items()):
        if unit in ("ms", "1/s"):
            print(f"# unscaled {name:23} {value:14.6f} {unit}")
    attempted, failed = res["attempted"], res["failed"]
    print(f"{'error_rate':32} {failed / attempted:14.6f} "
          f"({failed} of {attempted} jobs)")
    for label, why in sorted(res["failures"].items()):
        print(f"# failed job {label}: {why}")
    for err in res["errors"]:
        print(f"# check failed: {err}")
    correct = failed == 0 and not res["errors"]
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
