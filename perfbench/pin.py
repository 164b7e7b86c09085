"""Regenerate ``pins.json``: transition counts and digests of every
automaton the ``wide`` and ``cases`` workloads can produce.

Run from the repository root at the commit whose outputs are the
reference::

    python3 perfbench/pin.py

``wide`` is pinned per translated group, ``cases`` per graph text over
its whole catalogue, since the seed picks graphs from it.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import lstaq  # noqa: E402
from digest import digest  # noqa: E402
from inputs import FAMILIES, graph_catalogue  # noqa: E402
from workloads import (CASES_MIX, PINS, WIDE_SIZES, compile_group,  # noqa: E402
                       group_key, wide_groups)


def pinned(texts) -> list:
    _result, autos, _ = compile_group(lstaq, texts)
    return [[a.size, digest(a)] for a in autos]


def main() -> None:
    wide = {}
    for n in WIDE_SIZES:
        for family in FAMILIES:
            for texts in wide_groups(family, n):
                wide[group_key(texts)] = pinned(texts)
    cases = {}
    for k in CASES_MIX:
        for text in graph_catalogue(k):
            (cases[text],) = pinned([text])
    PINS.write_text(json.dumps({"wide": wide, "cases": cases}, indent=1,
                               sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
