"""State-to-automaton construction, amplitude filters, and final assembly."""

from __future__ import annotations

import gc
from collections import Counter

import pytest

from lstaq import ast as A
from lstaq.amplitude import (
    COMPLEX,
    TAG,
    VAL_ZERO,
    VALUATION,
    AmplitudePoly,
    ValAmp,
    tag,
)
from lstaq.build import (
    build_setq_lsta,
    build_state_lsta,
    filter_f,
    filter_tau,
    render_orders,
    render_stats,
    translate,
)
from lstaq.cli import bench_sources
from lstaq.errors import EmptyStateError, InternalError, SegmentLengthMismatchError
from lstaq.lsta import (
    Internal,
    Leaf,
    StateVector,
    enumerate_language,
    mk_lsta,
    validate,
    write_lsta,
)
from lstaq.oracle import differential_check
from lstaq.parser import parse
from tests.conftest import cpoly, normalize, vec
from tests.test_qubit_reorder import neq_graph

ONE = frozenset({1})
T, F = True, False


# ---------------------------------------------------------------------------
# build_state_lsta: levels, sinks, bounds.
# ---------------------------------------------------------------------------


def test_single_basis_state_needs_three_transitions():
    a = build_state_lsta(vec(1, {"0": "1"}), COMPLEX)
    validate(a)
    assert a.size == 3  # root split, value leaf, level-1 sink leaf
    assert enumerate_language(a, 1) == {vec(1, {"0": "1"})}


def test_full_support_states_have_no_sinks():
    psi = vec(1, {"0": "1/sqrt2", "1": "1/sqrt2"})
    a = build_state_lsta(psi, COMPLEX)
    assert a.size == 3  # root plus two value leaves; nothing to deaden
    assert enumerate_language(a, 1) == {psi}


def test_deep_sparse_state_grows_linearly():
    n = 12
    psi = vec(n, {"0" * n: "1"})
    a = build_state_lsta(psi, COMPLEX)
    validate(a)
    assert a.size <= (1 + 1) * (n + 1)
    assert enumerate_language(a, n) == {psi}


def test_transition_bound_holds_on_scattered_support():
    entries = {"0000": "1", "0110": "i", "1011": "-1", "1100": "1/sqrt2"}
    psi = vec(4, entries)
    a = build_state_lsta(psi, COMPLEX)
    validate(a)
    assert a.size <= (len(entries) + 1) * (4 + 1)
    assert enumerate_language(a, 4) == {psi}


def test_empty_states_are_rejected():
    with pytest.raises(EmptyStateError):
        build_state_lsta(StateVector.of(2, {}, COMPLEX), COMPLEX)


# ---------------------------------------------------------------------------
# The pinned three-qubit valuation state and its 15-transition automaton.
# ---------------------------------------------------------------------------


def third_case_state() -> StateVector:
    return StateVector.of(3, {
        "000": ValAmp.of({2: (T,)}),
        "001": ValAmp.of({2: (T,)}),
        "100": ValAmp.of({1: (T, T), 2: (T,)}),
        "101": ValAmp.of({1: (T, T), 2: (T,)}),
        "110": ValAmp.of({1: (T, F)}),
        "111": ValAmp.of({1: (T, F)}),
    }, VALUATION)


def reference_valuation_automaton():
    """The expected automaton, written out state by state.

    Leaf states sit under prefixes 000..111; prefix 01 dies into the level-2
    sink.  The level-1 sink is emitted even though nothing references it.
    """
    f2 = ValAmp.of({2: (T,)})
    f12 = ValAmp.of({1: (T, T), 2: (T,)})
    f1 = ValAmp.of({1: (T, F)})
    (q000, q001, q100, q101, q110, q111, s3,
     q00, q10, q11, s2, q0, q1, s1, root) = range(15)
    return mk_lsta(
        VALUATION,
        root=root,
        internal=[
            Internal(s2, ONE, s3, s3),
            Internal(q00, ONE, q000, q001),
            Internal(q10, ONE, q100, q101),
            Internal(q11, ONE, q110, q111),
            Internal(s1, ONE, s2, s2),
            Internal(q0, ONE, q00, s2),
            Internal(q1, ONE, q10, q11),
            Internal(root, ONE, q0, q1),
        ],
        leaves=[
            Leaf(q000, ONE, f2),
            Leaf(q001, ONE, f2),
            Leaf(q100, ONE, f12),
            Leaf(q101, ONE, f12),
            Leaf(q110, ONE, f1),
            Leaf(q111, ONE, f1),
            Leaf(s3, ONE, VAL_ZERO),
        ],
    )


def test_valuation_state_compiles_to_the_reference_automaton():
    a = build_state_lsta(third_case_state(), VALUATION)
    validate(a)
    assert a.size == 15
    assert normalize(a) == normalize(reference_valuation_automaton())


def test_valuation_language_round_trips():
    a = build_state_lsta(third_case_state(), VALUATION)
    assert enumerate_language(a, 3) == {third_case_state()}


# ---------------------------------------------------------------------------
# Amplitude filters.
# ---------------------------------------------------------------------------


def test_filter_f_keeps_fully_satisfied_terms():
    assert filter_f(ValAmp.of({2: (T,)})) == tag(2)
    assert filter_f(ValAmp.of({1: (T, T), 2: (T,)})) == tag(1, 2)
    assert filter_f(ValAmp.of({1: (T, F)})) == frozenset()
    assert filter_f(VAL_ZERO) == frozenset()


def test_filter_tau_substitutes_original_amplitudes():
    amplitudes = [AmplitudePoly.var("a1"), AmplitudePoly.var("a2")]
    assert filter_tau(tag(2), amplitudes) == AmplitudePoly.var("a2")
    assert filter_tau(tag(1, 2), amplitudes) == (
        AmplitudePoly.var("a1") + AmplitudePoly.var("a2"))
    assert filter_tau(frozenset(), amplitudes) == AmplitudePoly(())


def test_filter_tau_requires_a_legend_entry():
    # Tag m names the m-th term; 0 must not wrap round to the last one.
    amplitudes = [AmplitudePoly.var("a1"), AmplitudePoly.var("a2")]
    for stray in (0, 3):
        with pytest.raises(InternalError):
            filter_tau(tag(1, stray), amplitudes)
    with pytest.raises(InternalError):
        filter_tau(tag(1), [])


# ---------------------------------------------------------------------------
# Set-level construction.
# ---------------------------------------------------------------------------


def test_setq_automaton_unions_member_states():
    xs = [vec(2, {"00": "1"}), vec(2, {"11": "i"})]
    a = build_setq_lsta(xs, COMPLEX)
    validate(a)
    assert enumerate_language(a, 2) == set(xs)


def test_setq_automaton_keeps_zero_members():
    xs = [vec(2, {"00": "1"}), StateVector.of(2, {}, COMPLEX)]
    a = build_setq_lsta(xs, COMPLEX)
    validate(a)
    assert enumerate_language(a, 2) == set(xs)


def test_zero_only_sets_denote_the_zero_vector():
    a = build_setq_lsta([StateVector.of(3, {}, COMPLEX)], COMPLEX)
    assert enumerate_language(a, 3) == {StateVector.of(3, {}, COMPLEX)}


# ---------------------------------------------------------------------------
# Final qubit permutation.
# ---------------------------------------------------------------------------


def test_translate_reports_the_flattened_slot_permutation():
    # widths 2,2,1 with slots 1 and 3 grouped: new positions read
    # slot1 bit1, slot2 bit1, slot1 bit2, slot2 bit2, then slot3.
    src = "{ sum[ |s| = 2, |i| = 2, i != s ] |s i j> : |j| = 1 }"
    result = translate([parse(src)])
    assert result.permutation == (1, 3, 2, 4, 5)


def test_identity_permutation_when_slots_are_independent():
    result = translate([parse("{ sum[ |s| = 2, |i| = 2 ] |s i> }")])
    assert result.permutation == tuple(range(1, 5))


def test_permutation_is_a_bijection_on_larger_jobs():
    from tests.test_var_reorder import S_A, S_B

    result = translate([parse(f"{S_A} \\/ {S_B}")])
    assert sorted(result.permutation) == list(range(1, 11))


# ---------------------------------------------------------------------------
# End-to-end translation shapes.
# ---------------------------------------------------------------------------


def test_translated_language_matches_a_hand_enumeration():
    result = translate([parse("{ (1/sqrt2)|0 0> - (1/sqrt2)|0 1>, "
                              "(i/sqrt2)|1 0> - (i/sqrt2)|1 1> }")])
    (res,) = result.assertions
    got = enumerate_language(res.automaton, 2)
    want = {
        vec(2, {"00": "1/sqrt2", "01": "-1/sqrt2"}),
        vec(2, {"10": "i/sqrt2", "11": "-i/sqrt2"}),
    }
    assert got == want


def test_symbolic_amplitudes_survive_to_the_leaves():
    result = translate([parse("bigU[ re(a) > 0 ] { a |0> + a |1> }")])
    (res,) = result.assertions
    a = res.automaton
    assert frozenset().union(*(a.semiring.variables(t.amplitude) for t in a.leaves)) == {"a"}
    assert res.constraint is not None


def test_stats_report_sizes_and_counts():
    result = translate([parse("{ sum[ |i| = 2 ] |i> }")])
    stats = result.assertions[0].stats
    assert stats["qubits"] == 2
    assert stats["n_term"] == 1
    assert stats["size"] == result.assertions[0].automaton.size
    text = render_stats(result)
    assert "assertion0.size" in text and "permutation 1,2" in text
    orders = render_orders(result)
    assert "new_to_old" in orders


def test_long_neq_chains_keep_their_size_and_language():
    # v0 != v1 != ... != v9: one slice of 2^10 cases, written into one union.
    (res,) = translate([parse(neq_graph("chain", 10))]).assertions
    assert res.automaton.size == 21504
    report = differential_check([parse(neq_graph("chain", 6))])
    assert report.ok, str(report)


def _slice_counts(sources) -> list[tuple[int, int]]:
    result = translate([parse(src) for src in sources])
    return [(ar.stats["slices"], ar.stats["slices_built"])
            for ar in result.assertions]


def test_each_distinct_slice_is_built_once_per_translation(monkeypatch):
    import lstaq.build as build

    calls = []

    def counted(states, semiring):
        calls.append(states)
        return build_setq_lsta(states, semiring)

    monkeypatch.setattr(build, "build_setq_lsta", counted)
    small = _slice_counts(bench_sources("bv", 16)[0][:2])
    assert sum(b for _s, b in small) == len(calls)
    assert len(set(calls)) == len(calls)
    large = _slice_counts(bench_sources("bv", 64)[0][:2])
    # Wider sets tensor more slices, but no new kind of slice.
    assert [b for _s, b in small] == [b for _s, b in large]
    assert all(s_large > s_small
               for (s_small, _), (s_large, _) in zip(small, large))


def test_one_slice_sets_build_every_slice():
    # A set over 1-bit variables is one slot component of width one.
    names = [f"x{i}" for i in range(5)]
    lengths = ", ".join(f"|{v}| = 1" for v in names)
    chain = ", ".join(f"{a} != {b}" for a, b in zip(names, names[1:]))
    cycle = f"{chain}, {names[-1]} != {names[0]}"
    ket = " ".join(names)
    counts = _slice_counts([f"{{ |{ket}> : {lengths}, {chain} }}",
                            f"{{ |{ket}> : {lengths}, {cycle} }}"])
    assert counts == [(1, 1), (1, 1)]


def test_translate_validates_each_finished_assertion_once(monkeypatch):
    import lstaq.build as build

    calls = []

    def counted(a):
        calls.append(a)
        validate(a)

    monkeypatch.setattr(build, "validate", counted)
    chain = "{ |x y z> : |x| = 1, |y| = 1, |z| = 1, x != y, y != z }"
    jobs = [
        [chain, chain],
        list(bench_sources("bv", 8)[0][:2]),
        # An emptied summation leaves the zero vector as a member.
        ["{ sum[ p = 0 ] |p q> : |p| = 1, |q| = 1 } \\/ { |1 1> }"],
    ]
    for sources in jobs:
        calls.clear()
        result = translate([parse(src) for src in sources])
        assert len(calls) == len(sources)
        assert all(got is ar.automaton
                   for got, ar in zip(calls, result.assertions))


# Assertions whose alignment does not depend on their partners, so each one
# translates alone to the same bytes as in the group.  Within a group they
# share operand automata but differ in a value a composition reads: the
# amplitudes filter_tau sums, the order union_all numbers root choices in,
# and the valuations filter_f keeps.
@pytest.mark.parametrize("sources", [
    ["{ a |0 x> + b |1 x> : |x| = 1 }", "{ c |0 x> + d |1 x> : |x| = 1 }"],
    ["{ |0 x> : |x| = 1 } \\/ { |1 x> : |x| = 1 }",
     "{ |1 x> : |x| = 1 } \\/ { |0 x> : |x| = 1 }"],
    # One slot component with or without the inequality.
    ["{ |x y> + |y x> : |x| = 1, |y| = 1 }",
     "{ |x y> + |y x> : |x| = 1, |y| = 1, x != y }"],
], ids=["amplitudes", "union-order", "constraint"])
def test_shared_compositions_never_cross_a_value_difference(sources):
    group = translate([parse(src) for src in sources])
    for src, ar in zip(sources, group.assertions):
        alone = translate([parse(src)])
        assert write_lsta(ar.automaton, group.qubits) == write_lsta(
            alone.assertions[0].automaton, alone.qubits)
    texts = [write_lsta(ar.automaton, group.qubits) for ar in group.assertions]
    assert len(set(texts)) == len(texts)


def test_identical_assertions_share_every_composition(monkeypatch):
    import lstaq.build as build

    calls: Counter[str] = Counter()
    for name in ("tensor_chain", "map_leaves", "union_all", "validate"):
        def call(*args, _fn=getattr(build, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(build, name, call)

    keep = bench_sources("mctoffoli", 8)[0][0]
    translate([parse(keep)])
    once = calls.copy()
    calls.clear()
    result = translate([parse(keep), parse(keep)])
    assert once.pop("validate") == 1 and calls.pop("validate") == 2
    assert set(once) == {"tensor_chain", "map_leaves", "union_all"}
    assert calls == once
    first, second = result.assertions
    assert first.automaton is second.automaton


@pytest.mark.parametrize("source, components", [
    ("{ |x y> : |x| = 1, |y| = 1, x != y }", [1]),
    ("{ |x y> : |x| = 1, |y| = 1, y = 1 }", [2]),
    ("{ |x y z> : |x| = 1, |y| = 1, |z| = 1, x != y }", [2]),
    # The union's sets share one slot order.
    ("{ a |x> + b |~x> : |x| = 2 } \\/ { |1 0> }", [1, 1]),
])
def test_one_component_sets_cross_to_amplitudes_in_one_leaf_map(
        monkeypatch, source, components):
    import lstaq.build as build

    calls = []
    real = build.map_leaves
    monkeypatch.setattr(build, "map_leaves",
                        lambda *args: calls.append(args[2]) or real(*args))
    result = translate([parse(source)])
    (assertion,) = result.aligned.assertions
    (ids,) = build._slot_ids(result.aligned.partition)
    (order,) = result.orders
    assert [len(list(build.project_setP(sp, order, ids)))
            for sp in assertion.segments[0]] == components
    # One leaf map straight into COMPLEX per one-component set; filter_f
    # per component, then filter_tau, per set of several.  No component
    # automaton here recurs, so none is shared.
    assert calls == [semiring for k in components
                     for semiring in ([COMPLEX] if k == 1 else [TAG] * k + [COMPLEX])]


@pytest.mark.parametrize("enabled", [True, False])
def test_translate_pauses_the_collector_and_leaves_it_as_it_found_it(monkeypatch, enabled):
    import lstaq.build as build

    during = []

    def observed(a):
        during.append(gc.isenabled())
        validate(a)

    monkeypatch.setattr(build, "validate", observed)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        translate([parse("{ |0 1> }"), parse("{ |1 0> }")])
        assert during == [False, False]
        assert gc.isenabled() is enabled
        with pytest.raises(SegmentLengthMismatchError):
            translate([parse("{ |0> }"), parse("{ |0 1> }")])
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_every_assembled_automaton_validates_and_bounds_hold():
    sources = [
        "{ sum[ |i| = 2 ] |i j> : |j| = 1 } \\/ { |1 1 1> }",
        "{ sum[ |i| = 1 ] |i ~i> } ^ 2",
        "{ a |0 0> + b |1 1> } (x) { |0> } \\/ { |1> }",
    ]
    for src in sources:
        result = translate([parse(src)])
        for res in result.assertions:
            validate(res.automaton)
            assert res.automaton.size >= 1
