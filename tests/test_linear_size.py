"""The paper's linear claim as a property: automaton size is affine in n.

Each shape translates, at n = 4, 8 and 12, to exactly the transitions of
its affine form, and so does every ``size_*_max`` peak of the translation.
The five bench families are exactly affine at n = 256, 512 and 768, in the
size and in every peak of each assertion, and on one line from just above
their minimum size up to 32 and at 1024.  Their parsed and canonicalized
texts hold as many ket atoms at n = 64 as at n = 16384.
"""

from __future__ import annotations

import pytest

import lstaq.lsta as L
from lstaq.build import translate
from lstaq.cli import BENCH_MIN_SIZE, bench_sources
from lstaq.lsta import Lsta, write_lsta
from lstaq.parser import parse
from lstaq.preprocess import canonicalize
from tests.conftest import assert_same_lines

PEAKS = ("size_slice_max", "size_setv_max", "size_setp_max", "size_segment_max")

# spec with n for each "{n}", the size's (slope, intercept), and each peak's
# where it differs from the size's.
SHAPES = [
    ("{{ |x x> : |x| = {n} }}", (12, 2), {}),
    ("{{ |x ~x> : |x| = {n} }}", (12, 2), {}),
    ("{{ |x y> : |x| = {n}, |y| = {n}, x != y }}", (36, 0), {}),
    ("{{ |x y z> : |x| = {n}, |y| = {n}, |z| = {n}, x != y, y != z }}", (200, -80), {}),
    ("{{ sum[ |i| = {n} ] |i> }}", (1, 2), {}),
    ("{{ |x> + |~x> : |x| = {n} }}", (6, 6), {}),
    ("{{ sum[ |i| = {n} ] |i x> : |x| = {n} }}", (5, 6),
     {"size_slice_max": (4, 6), "size_setv_max": (4, 6)}),
    ("{{ |x y x> : |x| = {n}, |y| = {n} }}", (20, 6),
     {"size_slice_max": (12, 2), "size_setv_max": (12, 2)}),
    ("{{ a|x 0> + b|x 1> : |x| = {n} }}", (4, 4),
     {"size_slice_max": (4, 6), "size_setv_max": (4, 6)}),
    ("{{ |0> + |1> }} ^ {n}", (1, 2), {peak: (0, 3) for peak in PEAKS}),
]


@pytest.mark.parametrize("spec, form, peaks", SHAPES,
                         ids=["x x", "x ~x", "x y", "x y z", "sum i", "x + ~x", "sum i x",
                              "x y x", "a x0 + b x1", "power"])
def test_shapes_translate_to_their_affine_sizes(spec, form, peaks):
    for n in (4, 8, 12):
        (result,) = translate([parse(spec.format(n=n))]).assertions
        want = {"size": form, **{peak: peaks.get(peak, form) for peak in PEAKS}}
        got = {key: result.stats[key] for key in want}
        assert result.automaton.size == got["size"]
        assert got == {key: slope * n + intercept for key, (slope, intercept) in want.items()}


@pytest.mark.parametrize("family", ["bv", "ghz", "grover", "groveriter", "mctoffoli"])
def test_bench_families_are_exactly_affine(family):
    rows = []
    for n in (256, 512, 768):
        row = []
        for pre, post, joint in bench_sources(family, n):
            for group in ([pre, post],) if joint else ([pre], [post]):
                for result in translate([parse(t) for t in group]).assertions:
                    assert result.stats["size"] == result.automaton.size
                    row += [result.stats[key] for key in ("size", *PEAKS)]
        rows.append(row)
    assert len({len(row) for row in rows}) == 1
    for small, mid, large in zip(*rows):
        assert mid - small == large - mid


@pytest.mark.parametrize("family", ["bv", "ghz", "grover", "groveriter", "mctoffoli"])
def test_bench_families_hold_as_many_ket_atoms_at_any_size(family):
    # A constant run is one atom, however many qubits it spans.
    def atoms(n):
        asts = [parse(t) for pre, post, _joint in bench_sources(family, n) for t in (pre, post)]
        return [sum(len(term.pattern) for term in form.terms())
                for ast in asts for form in (ast, canonicalize(ast))]

    assert atoms(64) == atoms(16384)


# The smallest size from which each family's sizes and peaks lie on one
# line: the sizes below it, down to the family's minimum, lie off it.
LINE_FROM = {"bv": 2, "ghz": 3, "grover": 3, "groveriter": 3, "mctoffoli": 2}


def test_bench_families_lie_on_one_line_from_just_above_their_minimum():
    one_graft_runs = 0
    for family, line_from in LINE_FROM.items():
        rows = {}
        for n in [*range(BENCH_MIN_SIZE[family], 33), 1024]:
            row = rows[n] = []
            for pre, post, joint in bench_sources(family, n):
                for group in ([pre, post],) if joint else ([pre], [post]):
                    result = translate([parse(t) for t in group])
                    for ar in result.assertions:
                        a = ar.automaton
                        row += [ar.stats[key] for key in ("size", *PEAKS)]
                        if a._blocks is not None:
                            assert L._holds(a)
                            one_graft_runs += sum(run.n == 1 for run in a._blocks[1::2])
                        explicit = Lsta(a.semiring, a.states, a.root, tuple(a.internal), a.leaves)
                        assert_same_lines(write_lsta(a, result.qubits),
                                          write_lsta(explicit, result.qubits))
        base = rows[line_from]
        slope = [y - x for x, y in zip(base, rows[line_from + 1])]

        def on_line(n):
            return rows[n] == [x + (n - line_from) * d for x, d in zip(base, slope)]

        assert [n for n in rows if not on_line(n)] == list(range(BENCH_MIN_SIZE[family], line_from))
    # Runs of two grafts: one window each.
    assert one_graft_runs > 0
