"""The paper's linear claim as a property: automaton size is affine in n.

Each shape translates, at n = 4, 8 and 12, to exactly the transitions of
its affine form, and so does every ``size_*_max`` peak of the translation.
The five bench families are exactly affine at n = 256, 512 and 768, in the
size and in every peak of each assertion.
"""

from __future__ import annotations

import pytest

from lstaq.build import translate
from lstaq.cli import bench_sources
from lstaq.parser import parse

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
