"""Slot dependency analysis and the per-component set projections.

The fixture is one tensor segment holding two alternatives over the same
seven slots (widths 1,1,2,1,2,2,1).  The first alternative links slots
(1,2) by an inequality and (5,6) by a recurring variable; the second links
(2,7) by a recurring variable and (3,5) by two inequalities, one of them in
the set predicate.
"""

from __future__ import annotations

import pytest

from lstaq import ast as A
from lstaq.build import filter_tau, slice_expansions, translate
from lstaq.parser import parse
from lstaq.var_reorder import build_dependency_graph, compute_slot_order, project_setP

S_A = ("{ a1A sum[ |a| = 1, |b| = 1, |c| = 2, |d| = 2, e = 0, a != b ]"
       " |a b c x w d e>"
       " + a2A sum[ |f| = 1, |g| = 1, |h| = 2, |j| = 2, |k| = 1 ]"
       " |f g h i j w k>"
       " : |i| = 1, |w| = 2, |x| = 1 }")

S_B = ("{ a1B sum[ |l| = 1, |q| = 2, |m| = 2, |n| = 1, y = 0, p != q ]"
       " |l u p y q m n>"
       " + a2B sum[ |o| = 1, |r| = 1, |s| = 2, |t| = 1, |v| = 2 ]"
       " |o r s t z v u>"
       " : |p| = 2, |u| = 1, |z| = 2, p != z }")


@pytest.fixture(scope="module")
def job():
    return translate([parse(f"{S_A} \\/ {S_B}")])


def segment_setps(job):
    return job.aligned.assertions[0].segments[0]


# ---------------------------------------------------------------------------
# Dependency graph and slot order.
# ---------------------------------------------------------------------------


def test_slot_widths_match_the_shared_structure(job):
    assert [s.width for s in job.aligned.partition.slots] == [1, 1, 2, 1, 2, 2, 1]


def test_dependency_edges_come_from_recurrences_and_inequalities(job):
    setps = segment_setps(job)
    g = build_dependency_graph(setps, tuple(range(1, 8)))
    assert {(e.a, e.b) for e in g.edges} == {(1, 2), (2, 7), (3, 5), (5, 6)}
    kinds = {(e.a, e.b): e.kind for e in g.edges}
    assert kinds[(2, 7)] == "recurrence"
    assert kinds[(1, 2)] == "inequality"


def test_slot_order_groups_connected_components(job):
    setps = segment_setps(job)
    g = build_dependency_graph(setps, tuple(range(1, 8)))
    assert compute_slot_order(g) == ((1, 2, 7), (3, 5, 6), (4,))
    assert job.orders == (((1, 2, 7), (3, 5, 6), (4,)),)


def test_independent_slots_split_into_singletons():
    job = translate([parse("{ sum[ |i| = 2, |j| = 2 ] |i j> }")])
    assert job.orders == (((1,), (2,)),)


def test_dependent_slots_stay_together():
    job = translate([parse("{ sum[ |i| = 2, |j| = 2, i != j ] |i j> }")])
    assert job.orders == (((1, 2),),)


# ---------------------------------------------------------------------------
# Projections of the second alternative, component by component.
# ---------------------------------------------------------------------------


def projections(job):
    """The three SetVs projected from the second alternative, by slots."""
    second = segment_setps(job)[1]
    out = {}
    for (_ai, _seg, setv, _table, _slices) in slice_expansions(job):
        if setv.uid == second.uid:
            out[setv.slots] = setv
    return out


def test_projection_splits_into_the_three_components(job):
    got = projections(job)
    assert set(got) == {(1, 2, 7), (3, 5, 6), (4,)}


def test_recurrence_component_keeps_lengths_only(job):
    v = projections(job)[(1, 2, 7)]
    assert [t.tag for t in v.terms] == [1, 2]
    t1, t2 = v.terms
    # first term reads slots 1,2,7; its kept constraints are the two lengths
    assert [type(c).__name__ for c in t1.sum_constraints] == ["Len", "Len"]
    assert [type(c).__name__ for c in t2.sum_constraints] == ["Len", "Len"]
    # the shared variable sits at slot 2 in term 1 and slot 7 in term 2
    assert t1.pattern[1].name == t2.pattern[2].name
    # the predicate keeps the recurring variable's length and nothing else
    assert [type(c).__name__ for c in v.predicate] == ["Len"]


def test_inequality_component_keeps_both_inequalities(job):
    v = projections(job)[(3, 5, 6)]
    t1, t2 = v.terms
    kinds1 = sorted(type(c).__name__ for c in t1.sum_constraints)
    assert kinds1 == ["Len", "Len", "NeqVar"]
    kinds2 = sorted(type(c).__name__ for c in t2.sum_constraints)
    assert kinds2 == ["Len", "Len"]
    pred_kinds = sorted(type(c).__name__ for c in v.predicate)
    assert pred_kinds == ["Len", "Len", "NeqVar"]
    # the predicate inequality relates term 1's slot 3 to term 2's slot 5
    (neq,) = [c for c in v.predicate if isinstance(c, A.NeqVar)]
    assert {neq.left, neq.right} == {t1.pattern[0].name, t2.pattern[1].name}


def test_leftover_component_keeps_the_equality(job):
    v = projections(job)[(4,)]
    t1, t2 = v.terms
    assert [type(c).__name__ for c in t1.sum_constraints] == ["EqConst"]
    assert t1.sum_constraints[0].bits == "0"
    assert [type(c).__name__ for c in t2.sum_constraints] == ["Len"]
    assert v.predicate == ()


def test_tags_resolve_to_the_original_amplitudes(job):
    second = segment_setps(job)[1]
    slot_ids = tuple(sl.index for sl in job.aligned.partition.segments[0])
    amplitudes = [t.amplitude for t in second.terms]
    for v in project_setP(second, job.orders[0], slot_ids):
        assert [t.tag for t in v.terms] == [1, 2]
    assert str(filter_tau(frozenset({1}), amplitudes)) == "a1B"
    assert str(filter_tau(frozenset({2}), amplitudes)) == "a2B"


def test_every_slot_appears_in_exactly_one_component(job):
    for slots in projections(job):
        for v in projections(job)[slots].terms:
            assert len(v.pattern) == len(slots)
