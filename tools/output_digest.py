"""Print one sha256 per output part for a fixed corpus of input groups.

Run it from any checkout as ``python3 tools/output_digest.py``; it takes no
flags.  Two commits produce the same user-visible output exactly when their
digest listings are equal, so ``diff`` of two listings shows which groups
and which parts changed.

The corpus is every distinct input group that the benchmark's ``wide``,
``cases`` and ``verify`` workloads draw at seeds 1-3 (read from
``perfbench/``, which is left unchanged), plus the five benchmark families at
n = 2, 3, 4, 8 and 16.  Each group is translated as one job, as
``lstaq translate`` does with a file holding the group's assertions.  Its
parts are:

* ``automata``: the ``.lsta`` text of every assertion, side condition included;
* ``stats``: the ``--stats`` report without its ``seconds`` lines;
* ``dumps``: ``--dump-aligned`` followed by ``--dump-slices``;
* ``orders``: the slot order and permutation report;
* ``fmt``: the ``lstaq fmt`` output.

A part whose computation fails hashes the error's class and message.  Each
line holds the group's number, the first 12 hex digits of the sha256 of its
text, and one digest per part; the last lines give a digest per part over
all groups and a total.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from inputs import FAMILIES  # noqa: E402
from workloads import draw_inputs, group_key, wide_groups  # noqa: E402

from lstaq.build import (  # noqa: E402
    render_orders,
    render_stats,
    slice_expansions,
    translate,
)
from lstaq.errors import LstaqError  # noqa: E402
from lstaq.lsta import write_lsta  # noqa: E402
from lstaq.parser import parse_many, render_formula, render_many  # noqa: E402
from lstaq.preprocess import render_aligned  # noqa: E402
from lstaq.qubit_reorder import render_slices  # noqa: E402

PARTS = ("automata", "stats", "dumps", "orders", "fmt")
SEEDS = (1, 2, 3)
FAMILY_SIZES = (2, 3, 4, 8, 16)


def corpus() -> list[str]:
    """The distinct group texts, in first-drawn order."""
    groups: dict[str, None] = {}
    for workload in ("wide", "cases", "verify"):
        for seed in SEEDS:
            for spec in draw_inputs(workload, seed):
                for texts in spec.groups:
                    groups.setdefault(group_key(texts))
    for family in FAMILIES:
        for n in FAMILY_SIZES:
            for texts in wide_groups(family, n):
                groups.setdefault(group_key(texts))
    return list(groups)


def _automata(result) -> str:
    return "".join(
        write_lsta(ar.automaton, result.qubits,
                   None if ar.constraint is None
                   else render_formula(ar.constraint))
        for ar in result.assertions)


def _stats(result) -> str:
    return "".join(line for line in render_stats(result).splitlines(True)
                   if not line.split(" ", 1)[0].endswith("seconds"))


def _dumps(result) -> str:
    out = [render_aligned(result.aligned)]
    for ai, seg, v, table, slices in slice_expansions(result):
        out.append(f"// assertion {ai}, segment {seg + 1}\n")
        out.append(render_slices(v, table, slices))
    return "".join(out)


def _error(err: LstaqError) -> str:
    return f"{type(err).__name__}: {err}"


def outputs(text: str) -> dict[str, str]:
    """The text of every part for one group."""
    try:
        asts = parse_many(text)
    except LstaqError as err:
        return dict.fromkeys(PARTS, _error(err))
    out = {"fmt": render_many(asts)}
    try:
        result = translate(asts)
    except LstaqError as err:
        out.update(dict.fromkeys(PARTS[:4], _error(err)))
        return out
    out.update(automata=_automata(result), stats=_stats(result),
               dumps=_dumps(result), orders=render_orders(result))
    return out


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def main() -> None:
    totals = {p: hashlib.sha256() for p in PARTS}
    for i, text in enumerate(corpus()):
        got = outputs(text)
        digests = {p: _sha(got[p]) for p in PARTS}
        for p in PARTS:
            totals[p].update(digests[p].encode())
        print(f"{i} {_sha(text)[:12]} "
              + " ".join(f"{p}={digests[p]}" for p in PARTS))
    total = hashlib.sha256()
    for p in PARTS:
        print(f"total {p}={totals[p].hexdigest()}")
        total.update(totals[p].hexdigest().encode())
    print(f"total all={total.hexdigest()}")


if __name__ == "__main__":
    main()
