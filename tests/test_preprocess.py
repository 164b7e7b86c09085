"""Canonicalization, alignment checks, and constant abstraction.

The two-assertion job below exercises the whole front half of the pipeline:
a tensor power, a comma list, positional constants spanning slot boundaries,
and variables that force the global partition's five slots.
"""

from __future__ import annotations

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lstaq import ast as A
from lstaq.build import translate
from lstaq.errors import (
    ScopeError,
    SegmentCountMismatchError,
    SegmentLengthMismatchError,
    VariableOverlapError,
)
from lstaq.parser import parse
from lstaq.preprocess import FreshNamer, canonicalize

E1 = "{ |i 0 0> : |i| = 2 } (x) { |0> } \\/ { |1> } ^ 2"
E2 = "{ |00 0 i>, |11 1 i> : |i| = 1 } (x) { |0> } (x) { |0> }"


@pytest.fixture(scope="module")
def job():
    return translate([parse(E1), parse(E2)])


# ---------------------------------------------------------------------------
# Canonicalization.
# ---------------------------------------------------------------------------


def test_powers_expand_to_tensor_segments():
    out = canonicalize(parse("{ |0> } ^ 3"))
    assert len(out.segments) == 3
    assert all(p.power == 1 for p in out.segments)


def test_comma_lists_split_into_unions():
    out = canonicalize(parse("{ |0 0>, |1 1> : |j| = 1 }"))
    (seg,) = out.segments
    assert len(seg.base.alternatives) == 2
    assert all(len(sq.diracs) == 1 for sq in seg.base.alternatives)


def test_power_copies_are_renamed_apart():
    out = canonicalize(parse("{ sum[ |i| = 1 ] |i> } ^ 2"))
    names = []
    for seg in out.segments:
        (sq,) = seg.base.alternatives
        ((term,),) = sq.diracs
        names.append(term.pattern[0].name)
    assert len(set(names)) == 2


def test_split_copies_are_renamed_apart():
    out = canonicalize(parse(E2))
    first, second = out.segments[0].base.alternatives
    v1 = {a.name for (t,) in first.diracs for a in t.pattern
          if not isinstance(a, A.Const)}
    v2 = {a.name for (t,) in second.diracs for a in t.pattern
          if not isinstance(a, A.Const)}
    assert v1 and v2 and v1.isdisjoint(v2)


def test_fresh_names_avoid_the_existing_pool():
    namer = FreshNamer({"i0", "i1"})
    assert namer.fresh("i") == "i2"
    assert namer.fresh("i") == "i3"


_BASES = st.sampled_from(["c", "c1", "i", "x"])


@settings(max_examples=200, deadline=None)
@given(st.sets(st.builds("{}{}".format, _BASES, st.integers(0, 12))),
       st.lists(_BASES, max_size=40))
def test_fresh_names_equal_the_count_from_zero_reference(used, bases):
    namer = FreshNamer(used)
    taken = set(used)
    for base in bases:
        n = 0
        while f"{base}{n}" in taken:
            n += 1
        taken.add(f"{base}{n}")
        assert namer.fresh(base) == f"{base}{n}"


def _cpu_ratio(small: str, large: str, step: int, rounds: int = 10) -> float:
    """The CPU time of translating ``large`` once over that of translating
    ``small`` once, each its best of ``rounds`` interleaved rounds.  A
    round times ``step`` translations of ``small`` in a row and then one of
    ``large``, so at linear cost both samples take as long and see the same
    stretch of a shared machine; a stall only adds time, so the best of
    each side is the least disturbed.  One untimed translation of each
    comes first."""
    small_ast, large_ast = parse(small), parse(large)

    def cpu_seconds(ast, times: int) -> float:
        t0 = time.process_time()
        for _ in range(times):
            translate([ast])
        return time.process_time() - t0

    for ast in (small_ast, large_ast):
        translate([ast])
    smalls, larges = [], []
    for _ in range(rounds):
        smalls.append(cpu_seconds(small_ast, step))
        larges.append(cpu_seconds(large_ast, 1))
    return step * min(larges) / min(smalls)


def test_tensor_powers_translate_in_linear_time():
    # Linear work reads about 4x here; quadratic work about 16x.
    ratio = _cpu_ratio("{ |0> } ^ 1000", "{ |0> } ^ 4000", 4)
    assert ratio <= 6, ratio


# ---------------------------------------------------------------------------
# The aligned form of the E1/E2 job.
# ---------------------------------------------------------------------------


def test_global_partition_has_five_slots(job):
    slots = job.aligned.partition.slots
    assert [(s.start, s.width) for s in slots] == [
        (1, 2), (3, 1), (4, 1), (5, 1), (6, 1)]
    assert job.aligned.partition.total_qubits == 6
    assert [len(job.aligned.partition.segments[k]) for k in range(3)] == [3, 1, 1]


def test_first_assertion_aligns_to_summed_constants(job):
    a1 = job.aligned.assertions[0]
    assert len(a1.segments) == 3

    (sp,) = a1.segments[0]
    (term,) = sp.terms
    assert [c.bits for c in term.sum_constraints
            if isinstance(c, A.EqConst)] == ["0", "0"]
    assert len(term.pattern) == 3
    assert [c.n for c in sp.predicate if isinstance(c, A.Len)] == [2]

    for seg, bits in ((a1.segments[1], ["0", "1"]), (a1.segments[2], ["0", "1"])):
        assert len(seg) == 2
        got = []
        for sp in seg:
            (term,) = sp.terms
            (eq,) = [c for c in term.sum_constraints if isinstance(c, A.EqConst)]
            got.append(eq.bits)
        assert got == bits


def test_second_assertion_slices_constants_at_slot_boundaries(job):
    a2 = job.aligned.assertions[1]
    seg1 = a2.segments[0]
    assert len(seg1) == 2
    bits = []
    for sp in seg1:
        (term,) = sp.terms
        bits.append(tuple(c.bits for c in term.sum_constraints
                          if isinstance(c, A.EqConst)))
        assert len(term.pattern) == 3
        assert [c.n for c in sp.predicate if isinstance(c, A.Len)] == [1]
    assert bits == [("00", "0"), ("11", "1")]

    for seg in (a2.segments[1], a2.segments[2]):
        (sp,) = seg
        (term,) = sp.terms
        (eq,) = [c for c in term.sum_constraints if isinstance(c, A.EqConst)]
        assert eq.bits == "0"


def test_patterns_are_pure_variables_after_abstraction(job):
    for assertion in job.aligned.assertions:
        for seg in assertion.segments:
            for sp in seg:
                for term in sp.terms:
                    assert all(isinstance(a, (A.Var, A.Compl))
                               for a in term.pattern)


def test_setp_uids_are_unique(job):
    uids = [sp.uid
            for assertion in job.aligned.assertions
            for seg in assertion.segments
            for sp in seg]
    assert len(uids) == len(set(uids))


# ---------------------------------------------------------------------------
# Alignment failures.
# ---------------------------------------------------------------------------


def test_segment_count_mismatch_is_rejected():
    with pytest.raises(SegmentCountMismatchError) as exc:
        translate([parse("{ |0> }"), parse("{ |0> } (x) { |0> }")])
    assert exc.value.exit_code == 3


def test_segment_length_mismatch_is_rejected():
    with pytest.raises(SegmentLengthMismatchError):
        translate([parse("{ |0> }"), parse("{ |0 0> }")])


def test_straddling_variables_are_rejected():
    a = parse("{ sum[ |i| = 2 ] |i 0> }")
    b = parse("{ sum[ |j| = 2 ] |0 j> }")
    with pytest.raises(VariableOverlapError):
        translate([a, b])


def test_straddling_variables_within_one_assertion_are_rejected():
    with pytest.raises(VariableOverlapError):
        translate([parse("{ sum[ |i| = 2 ] |i 0> } \\/ { sum[ |j| = 2 ] |0 j> }")])


def test_constrained_variables_must_appear_in_patterns():
    # Each comma-separated ket must hold the set's predicate variables, and
    # the error names them as written.
    for src in ("{ |0> : |k| = 1 }", "{ |k>, |0> : |k| = 1 }"):
        with pytest.raises(ScopeError, match="'k'"):
            translate([parse(src)])
