"""Command-line front end: ``translate``, ``oracle``, ``bench``, ``fmt``.

Exit codes follow the error taxonomy: 1 syntax, 2 well-formedness,
3 alignment, 4 internal invariant or resource limit (also used when
``--check-oracle`` finds a mismatch, an input file cannot be read or an
output cannot be written).
"""

from __future__ import annotations

import argparse
import sys
import time
import traceback
from pathlib import Path

from . import __version__
from .ast import MAX_QUBITS
from .build import render_orders, render_stats, slice_expansions, translate
from .errors import LstaqError, SpecSyntaxError
from .lsta import write_lsta
from .oracle import Valuation, denote, differential_check
from .parser import parse, parse_constant, parse_many, render_formula, render_many
from .preprocess import render_aligned
from .qubit_reorder import render_slices


def _read_source(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise LstaqError(f"cannot read {path!r}: {err.strerror}") from err
    except UnicodeDecodeError as err:
        raise LstaqError(f"cannot read {path!r}: byte {err.start} is not "
                         f"{err.encoding} text") from err


def _parse_theta(bindings: list[str]) -> Valuation | None:
    if not bindings:
        return None
    out: Valuation = {}
    for raw in bindings:
        name, eq, expr = raw.partition("=")
        if not eq or not name.strip():
            raise SpecSyntaxError(f"--theta expects NAME=VALUE, got {raw!r}")
        out[name.strip()] = parse_constant(expr)
    return out


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------


def cmd_translate(args: argparse.Namespace) -> int:
    asts = parse_many(_read_source(args.file))
    # A malformed --theta is refused before anything is written.
    theta = _parse_theta(args.theta) if args.check_oracle else None
    result = translate(asts)

    automata = []
    for ar in result.assertions:
        side = None
        if ar.constraint is not None:
            side = render_formula(ar.constraint)
        automata.append(write_lsta(ar.automaton, result.qubits, side))
    perm_report = render_orders(result)

    # The files are written before any dump is printed, so an output that
    # cannot be written leaves stdout empty.
    if args.out:
        outdir = Path(args.out)
        stem = Path(args.file).stem
        try:
            outdir.mkdir(parents=True, exist_ok=True)
            for i, text in enumerate(automata):
                (outdir / f"{stem}_{i}.lsta").write_text(text)
            (outdir / f"{stem}.perm").write_text(perm_report)
            if args.stats:
                (outdir / f"{stem}.stats").write_text(render_stats(result))
        except OSError as err:
            raise LstaqError(f"cannot write {err.filename or args.out!r}: "
                             f"{err.strerror}") from err
    if args.dump_aligned:
        sys.stdout.write(render_aligned(result.aligned))
    if args.order_report and args.out:
        sys.stdout.write(perm_report)
    if args.dump_slices:
        for ai, seg, v, table, runs in slice_expansions(result):
            sys.stdout.write(f"// assertion {ai}, segment {seg + 1}\n")
            sys.stdout.write(render_slices(v, table, runs))
    if not args.out:
        for text in automata:
            sys.stdout.write(text)
        sys.stdout.write(perm_report)
        if args.stats:
            sys.stdout.write(render_stats(result))

    if args.check_oracle:
        report = differential_check(
            asts, thetas=None if theta is None else [theta], cap=args.cap)
        print(report)
        if not report.ok:
            return 4
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    asts = parse_many(_read_source(args.file))
    theta = _parse_theta(args.theta)
    # Everything is rendered before any line is printed: an error prints none.
    lines = []
    for i, ast in enumerate(asts):
        states = denote(ast, theta=theta, cap=args.cap)
        lines.append(f"// assertion {i}: {len(states)} members")
        lines += sorted(map(str, states))
    for line in lines:
        print(line)
    return 0


# The smallest size at which each benchmark family is defined.
BENCH_MIN_SIZE = {"bv": 1, "ghz": 1, "grover": 2, "groveriter": 2, "mctoffoli": 1}


def bench_sources(family: str, n: int) -> list[tuple[str, str, bool]]:
    """Benchmark specification sources: (pre, post, translate-jointly).

    Pure text generation so the sources double as parser fixtures.  The
    ``ghz`` pair differs in qubit count (n vs. n+1), so its two sides are
    translated as separate jobs.  A size below the family's minimum or
    above ``MAX_QUBITS`` is a ``SpecSyntaxError``.
    """
    least = BENCH_MIN_SIZE.get(family)
    if least is not None and n < least:
        raise SpecSyntaxError(f"{family} requires n >= {least}, got n = {n}")
    if n > MAX_QUBITS:
        raise SpecSyntaxError(f"{family} requires n <= {MAX_QUBITS}, got n = {n}")
    if family == "bv":
        return [(
            f"{{ |s 0^{n} 0> : |s| = {n} }}",
            f"{{ |s s 0> : |s| = {n} }}",
            True,
        )]
    if family == "ghz":
        return [(
            f"{{ |i> : |i| = {n} }}",
            f"{{ 1/sqrt2 |0 i> + 1/sqrt2 |1 ~i>,"
            f" 1/sqrt2 |0 i> - 1/sqrt2 |1 ~i> : |i| = {n} }}",
            False,
        )]
    if family == "grover":
        return [(
            f"{{ |s 0^{n} 0^{n - 2} 0> : |s| = {n} }}",
            f"bigU[ im(ah) = 0 && |ah|^2 > 7/8 ]"
            f"{{ ah |s s 0^{n - 2} 1> +"
            f" al sum[ i != s ] |s i 0^{n - 2} 1> : |s| = {n} }}",
            True,
        )]
    if family == "groveriter":
        body = (f"{{ AH |s s 0^{n - 2} 1> +"
                f" AL sum[ i != s ] |s i 0^{n - 2} 1> : |s| = {n} }}")
        pre = ("bigU[ im(ah) = 0 && re(ah) > 0 && im(al) = 0 &&"
               " re(al) > 0 && 7 * re(al) > re(ah) ]"
               + body.replace("AH", "ah").replace("AL", "al"))
        post = ("bigU[ im(ahp) = 0 && im(alp) = 0 && |ahp|^2 > |ah|^2 ]"
                + body.replace("AH", "ahp").replace("AL", "alp"))
        return [(pre, post, True)]
    if family == "mctoffoli":
        ones = "1" * n
        jobs: list[tuple[str, str, bool]] = []
        for t in (0, 1):
            keep = f"{{ |i 0^{n - 1} {t}> : i != {ones}, |i| = {n} }}"
            jobs.append((keep, keep, True))
        for t in (0, 1):
            jobs.append((
                f"{{ |{ones} 0^{n - 1} {t}> }}",
                f"{{ |{ones} 0^{n - 1} {1 - t}> }}",
                True,
            ))
        return jobs
    raise SpecSyntaxError(f"unknown benchmark family {family!r}")


def bench_groups(family: str, n: int) -> list[list[str]]:
    """The sources of :func:`bench_sources` in the groups that are
    translated together, one ``translate`` call each: pre and post in one
    group when they are translated jointly, else in one each."""
    return [g for pre, post, joint in bench_sources(family, n)
            for g in ([[pre, post]] if joint else [[pre], [post]])]


def cmd_bench(args: argparse.Namespace) -> int:
    try:
        sizes = [int(x) for x in args.sizes.split(",") if x.strip()]
    except ValueError:
        raise SpecSyntaxError(
            f"sizes must be comma-separated integers, got {args.sizes!r}"
        ) from None
    if not sizes:
        raise SpecSyntaxError("no sizes given")
    # Every size is checked before the first line is printed.
    sources = [(n, bench_groups(args.family, n)) for n in sizes]
    print(f"{'n':>5} {'qubits':>7} {'pre':>9} {'post':>9} {'seconds':>9}")
    for n, groups in sources:
        # One translation per group; the automata alternate pre and post.
        transitions: list[int] = []
        qubits = 0
        t0 = time.perf_counter()
        for group in groups:
            result = translate([parse(src) for src in group])
            transitions += [ar.automaton.size for ar in result.assertions]
            qubits = max(qubits, result.qubits)
        dt = time.perf_counter() - t0
        pre_size, post_size = sum(transitions[::2]), sum(transitions[1::2])
        print(f"{n:>5} {qubits:>7} {pre_size:>9} {post_size:>9} {dt:>9.3f}")
    return 0


def cmd_fmt(args: argparse.Namespace) -> int:
    asts = parse_many(_read_source(args.file))
    sys.stdout.write(render_many(asts))
    return 0


# ---------------------------------------------------------------------------
# Entry point.
# ---------------------------------------------------------------------------


def _build_argparser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lstaq",
        description="Translate set-based quantum-state specifications "
                    "into level-synchronized tree automata.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument(
        "--debug", action="store_true",
        help="print the traceback of an unexpected (internal) error")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("translate", help="translate a spec file into .lsta automata")
    p.add_argument("file")
    p.add_argument("-o", "--out", help="output directory (default: stdout)")
    p.add_argument("--dump-aligned", action="store_true",
                   help="print the slot-aligned form")
    p.add_argument("--order-report", action="store_true",
                   help="print slot components and the qubit permutation "
                        "even when -o diverts them to a file")
    p.add_argument("--dump-slices", action="store_true",
                   help="print the per-qubit slice expansions")
    p.add_argument("--stats", action="store_true",
                   help="emit the size/parameter report")
    p.add_argument("--check-oracle", action="store_true",
                   help="also compare against the brute-force enumeration")
    p.add_argument("--cap", type=int, default=12,
                   help="qubit cap for oracle checks (default 12)")
    p.add_argument("--theta", action="append", default=[], metavar="NAME=AMP",
                   help="amplitude valuation for --check-oracle")

    p = sub.add_parser("oracle", help="print the brute-force denotation")
    p.add_argument("file")
    p.add_argument("--theta", action="append", default=[], metavar="NAME=AMP")
    p.add_argument("--cap", type=int, default=12)

    p = sub.add_parser("bench", help="generate and translate a benchmark family")
    p.add_argument("family", choices=list(BENCH_MIN_SIZE))
    p.add_argument("sizes", help="comma-separated sizes, e.g. 4,8,16")

    p = sub.add_parser("fmt", help="parse and pretty-print a spec file")
    p.add_argument("file")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_argparser().parse_args(argv)
    handlers = {
        "translate": cmd_translate,
        "oracle": cmd_oracle,
        "bench": cmd_bench,
        "fmt": cmd_fmt,
    }
    try:
        return handlers[args.command](args)
    except LstaqError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.exit_code
    except Exception as err:  # not KeyboardInterrupt: that is no Exception
        if args.debug:
            traceback.print_exc()
        print(f"error: internal: {type(err).__name__}: {err}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
