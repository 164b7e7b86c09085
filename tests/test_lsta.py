"""Automaton structure, language enumeration, union and tensor laws."""

from __future__ import annotations

import random
import time

import pytest

from lstaq.amplitude import COMPLEX, TAG, VALUATION, AmplitudePoly
from lstaq.build import build_setq_lsta, build_state_lsta, filter_f, translate
from lstaq.cli import bench_sources
from lstaq.errors import (
    ChoiceOverlapError,
    DanglingStateError,
    InternalError,
    LimitExceededError,
    UnboundComplexVarError,
)
from lstaq.lsta import (
    Internal,
    Leaf,
    Lsta,
    StateVector,
    enumerate_language,
    map_leaves,
    membership,
    mk_lsta,
    n_leaves,
    permute_state,
    substitute_state,
    tensor,
    union,
    validate,
    write_lsta,
)
from lstaq.parser import parse, parse_many
from tests.conftest import cpoly, vec

ONE = frozenset({1})


def single_member(amps: dict[str, str]) -> Lsta:
    """A one-member automaton over 1 qubit, built by hand."""
    return mk_lsta(
        COMPLEX,
        root=0,
        internal=[Internal(0, ONE, 1, 2)],
        leaves=[Leaf(1, ONE, cpoly(amps["0"])), Leaf(2, ONE, cpoly(amps["1"]))],
    )


def tensor_vec(x, y):
    amps = {}
    for s, v in x.entries:
        for t, w in y.entries:
            amps[s + t] = v * w
    return type(x).of(x.n + y.n, amps, COMPLEX)


# ---------------------------------------------------------------------------
# The two-member reference automaton.
# ---------------------------------------------------------------------------


def test_reference_language_is_exactly_two_states(ref_automaton):
    got = enumerate_language(ref_automaton, 2)
    want = frozenset({
        vec(2, {"00": "1/sqrt2", "01": "-1/sqrt2"}),
        vec(2, {"10": "i/sqrt2", "11": "-i/sqrt2"}),
    })
    assert got == want


def test_reference_size_and_leaf_count(ref_automaton):
    assert ref_automaton.size == 10
    assert n_leaves(ref_automaton) == 5


def test_membership_agrees_with_enumeration(ref_automaton):
    assert membership(ref_automaton, vec(2, {"00": "1/sqrt2", "01": "-1/sqrt2"}))
    assert not membership(ref_automaton, vec(2, {"00": "1/sqrt2", "01": "1/sqrt2"}))
    assert not membership(ref_automaton, vec(2, {"00": "1"}))


def test_reference_validates(ref_automaton):
    validate(ref_automaton)


# ---------------------------------------------------------------------------
# Structural invariants.
# ---------------------------------------------------------------------------


def test_choice_overlap_is_rejected():
    bad = mk_lsta(
        COMPLEX,
        root=0,
        internal=[Internal(0, ONE, 1, 1), Internal(0, frozenset({1, 2}), 1, 1)],
        leaves=[Leaf(1, ONE, cpoly("1"))],
    )
    with pytest.raises(ChoiceOverlapError):
        validate(bad)


def test_dangling_root_is_rejected():
    bad = Lsta(COMPLEX, frozenset({0}), 5, (), ())
    with pytest.raises(DanglingStateError):
        validate(bad)


def _violation(internal, leaves, states=frozenset({0, 1, 2})) -> InternalError:
    """The error ``validate`` raises on an automaton rooted at 0."""
    with pytest.raises(InternalError) as err:
        validate(Lsta(COMPLEX, frozenset(states), 0, tuple(internal), tuple(leaves)))
    return err.value


ONE_LEAF = Leaf(1, ONE, cpoly("1"))


def test_a_dangling_internal_child_is_named():
    err = _violation([Internal(0, ONE, 1, 7)], [ONE_LEAF])
    assert isinstance(err, DanglingStateError) and err.state == 7


def test_a_dangling_leaf_top_is_named():
    err = _violation([Internal(0, ONE, 1, 1)], [ONE_LEAF, Leaf(4, ONE, cpoly("0"))])
    assert isinstance(err, DanglingStateError) and err.state == 4


def test_an_empty_choice_set_is_rejected():
    err = _violation([Internal(0, ONE, 1, 1)], [ONE_LEAF, Leaf(1, frozenset(), cpoly("0"))])
    assert type(err) is InternalError
    assert str(err) == "transition from state 1 has no choices"


def test_an_overlap_between_leaf_transitions_is_named():
    leaves = [Leaf(1, frozenset({1, 2}), cpoly("1")), Leaf(2, ONE, cpoly("1")),
              Leaf(1, frozenset({3, 2}), cpoly("0"))]
    err = _violation([Internal(0, ONE, 1, 2)], leaves)
    assert isinstance(err, ChoiceOverlapError)
    assert (err.state, err.choice) == (1, 2)


def test_the_first_of_two_violations_in_transition_order_is_reported():
    # The overlap at state 0 comes before the leaf on unknown state 5.
    internal = [Internal(0, frozenset({1, 2}), 1, 1), Internal(0, frozenset({2}), 1, 2)]
    err = _violation(internal, [ONE_LEAF, Leaf(5, ONE, cpoly("1"))])
    assert isinstance(err, ChoiceOverlapError)
    assert (err.state, err.choice) == (0, 2)


def test_enumeration_limit_is_enforced(ref_automaton):
    with pytest.raises(LimitExceededError):
        enumerate_language(ref_automaton, 2, limit=1)


# ---------------------------------------------------------------------------
# Sparse enumeration against the dense reference.
# ---------------------------------------------------------------------------


def _ref_enumerate(a: Lsta, n: int) -> frozenset[StateVector]:
    """The language by dense runs: each run holds the states of all 2^level
    positions, and each member is read off all 2^n leaves."""
    tables: dict[tuple[int, bool], dict[int, object]] = {}
    for t in (*a.internal, *a.leaves):
        for c in t.choices:
            tables.setdefault((t.top, isinstance(t, Leaf)), {})[c] = t

    def common(run, leafy: bool) -> set[int]:
        return set.intersection(*(set(tables.get((q, leafy), ())) for q in run))

    runs = {(a.root,)}
    for _ in range(n):
        runs = {tuple(s for q in run
                      for s in (tables[q, False][c].left, tables[q, False][c].right))
                for run in runs for c in common(run, False)}
    out = set()
    for run in runs:
        for c in common(run, True):
            amps = {format(i, f"0{n}b"): tables[q, True][c].amplitude
                    for i, q in enumerate(run)}
            out.add(StateVector.of(n, amps, a.semiring))
    return frozenset(out)


def _assert_matches_reference(a: Lsta, n: int) -> frozenset[StateVector]:
    got = enumerate_language(a, n)
    assert got == _ref_enumerate(a, n)
    for psi in got:
        assert psi == StateVector.of(n, dict(psi.entries), a.semiring)
    return got


def test_sparse_enumeration_matches_the_dense_reference_on_the_families():
    for family in ("bv", "ghz", "grover", "groveriter", "mctoffoli"):
        for n in (2, 3, 4):
            for pre, post, joint in bench_sources(family, n):
                batches = ([parse_many(pre) + parse_many(post)] if joint
                           else [parse_many(pre), parse_many(post)])
                for asts in batches:
                    result = translate(asts)
                    for ar in result.assertions:
                        assert _assert_matches_reference(ar.automaton, result.qubits)


def test_sparse_enumeration_matches_the_dense_reference_on_random_specs():
    from tests.test_acceptance import random_source

    rng = random.Random(0x5EA75E)
    for _ in range(200):
        result = translate([parse(random_source(rng))])
        _assert_matches_reference(result.assertions[0].automaton, result.qubits)


def test_sparse_enumeration_matches_the_dense_reference_over_other_semirings():
    from tests.test_build import reference_valuation_automaton, third_case_state

    valuation = build_state_lsta(third_case_state(), VALUATION)
    for a in (valuation, reference_valuation_automaton(),
              map_leaves(valuation, filter_f, TAG)):
        assert len(_assert_matches_reference(a, 3)) == 1


def test_a_zero_only_state_forbids_the_choices_it_lacks():
    # State 2 yields only zeros and has no choice 2 at level 1, so the run
    # that takes choice 2 there must vanish, though state 1 allows it.
    a = mk_lsta(
        COMPLEX,
        root=0,
        internal=[Internal(0, ONE, 1, 2), Internal(1, ONE, 3, 3),
                  Internal(1, frozenset({2}), 4, 4), Internal(2, ONE, 5, 5)],
        leaves=[Leaf(3, ONE, cpoly("1")), Leaf(4, ONE, cpoly("i")),
                Leaf(5, ONE, cpoly("0"))],
    )
    assert _assert_matches_reference(a, 2) == {vec(2, {"00": "1", "01": "1"})}


def test_a_zero_only_root_denotes_the_zero_vector():
    zero = StateVector.of(3, {}, COMPLEX)
    a = build_setq_lsta([zero], COMPLEX)
    assert _assert_matches_reference(a, 3) == {zero}
    both = build_setq_lsta([vec(2, {"10": "i"}), StateVector.of(2, {}, COMPLEX)], COMPLEX)
    assert _assert_matches_reference(both, 2) == {
        vec(2, {"10": "i"}), StateVector.of(2, {}, COMPLEX)}


def test_a_1024_qubit_basis_state_enumerates_to_itself():
    n = 1024
    result = translate([parse(f"{{ |1^{n - 1} 0> }}")])
    a = result.assertions[0].automaton
    psi = vec(n, {"1" * (n - 1) + "0": "1"})
    assert result.qubits == n
    assert enumerate_language(a, n) == {psi}
    assert membership(a, psi)
    assert not membership(a, vec(n, {"1" * n: "1"}))


def test_a_dense_frontier_is_refused_promptly():
    # Every one of the 2^40 leaves is nonzero: at level 17 a frontier
    # holds 2^17 live positions, past the default limit of 100,000.
    result = translate([parse("{ |0> + |1> } ^ 40")])
    t0 = time.perf_counter()
    with pytest.raises(LimitExceededError):
        enumerate_language(result.assertions[0].automaton, result.qubits)
    assert time.perf_counter() - t0 < 10


# ---------------------------------------------------------------------------
# Union.
# ---------------------------------------------------------------------------


def test_union_language_is_the_set_union(ref_automaton):
    b = tensor(single_member({"0": "1", "1": "0"}),
               single_member({"0": "1/sqrt2", "1": "1/sqrt2"}))
    u = union(ref_automaton, b)
    validate(u)
    assert enumerate_language(u, 2) == (
        enumerate_language(ref_automaton, 2) | enumerate_language(b, 2))


def test_union_size_stays_within_the_additive_bound(ref_automaton):
    u = union(ref_automaton, ref_automaton)
    # One fresh root re-emits both roots' transition sets.
    assert u.size <= 2 * ref_automaton.size + 4
    assert enumerate_language(u, 2) == enumerate_language(ref_automaton, 2)


def test_union_keeps_operand_languages_apart():
    a = single_member({"0": "1", "1": "0"})
    b = single_member({"0": "0", "1": "i"})
    u = union(a, b)
    validate(u)
    assert enumerate_language(u, 1) == {vec(1, {"0": "1"}), vec(1, {"1": "i"})}


# ---------------------------------------------------------------------------
# Tensor product.
# ---------------------------------------------------------------------------


def test_tensor_language_is_the_pairwise_product(ref_automaton):
    b = union(single_member({"0": "1", "1": "0"}),
              single_member({"0": "1/sqrt2", "1": "-1/sqrt2"}))
    t = tensor(ref_automaton, b)
    validate(t)
    want = frozenset(
        tensor_vec(x, y)
        for x in enumerate_language(ref_automaton, 2)
        for y in enumerate_language(b, 1)
    )
    assert enumerate_language(t, 3) == want


def test_tensor_size_bound_in_raw_operand_sizes(ref_automaton):
    b = single_member({"0": "1/sqrt2", "1": "1/sqrt2"})
    t = tensor(ref_automaton, b)
    assert t.size <= ref_automaton.size + n_leaves(ref_automaton) * b.size


def test_tensor_chains_stay_valid_and_bounded():
    a = single_member({"0": "1/sqrt2", "1": "i/sqrt2"})
    t = a
    for _ in range(9):
        bound = t.size + n_leaves(t) * a.size
        t = tensor(t, a)
        validate(t)
        assert t.size <= bound
    assert len(enumerate_language(t, 10)) == 1


# ---------------------------------------------------------------------------
# Leaf rewriting and state-vector helpers.
# ---------------------------------------------------------------------------


def test_map_leaves_rescales_the_language(ref_automaton):
    scaled = map_leaves(ref_automaton, lambda v: v * cpoly("i"))
    got = enumerate_language(scaled, 2)
    assert vec(2, {"00": "i/sqrt2", "01": "-i/sqrt2"}) in got


def test_permute_state_reorders_positions():
    psi = vec(3, {"100": "1"})
    assert permute_state(psi, (2, 3, 1)) == vec(3, {"001": "1"})
    assert permute_state(psi, (1, 2, 3)) == psi


def test_substitute_state_drops_vanishing_entries():
    sv = StateVector.of(1, {"0": AmplitudePoly.var("a"),
                            "1": AmplitudePoly.from_int(1)}, COMPLEX)
    out = substitute_state(sv, {"a": cpoly("0").constant_value})
    assert out == vec(1, {"1": "1"})


def test_substitute_state_memo_keeps_unbound_variables_an_error():
    sv = StateVector.of(1, {"0": AmplitudePoly.var("a"),
                            "1": AmplitudePoly.var("b")}, COMPLEX)
    theta = {"a": cpoly("1").constant_value}
    memo: dict = {}
    for _ in range(2):
        with pytest.raises(UnboundComplexVarError):
            substitute_state(sv, theta, memo)
    assert AmplitudePoly.var("b") not in memo


# ---------------------------------------------------------------------------
# Serialization.
# ---------------------------------------------------------------------------


def test_write_lsta_is_deterministic(ref_automaton):
    a = write_lsta(ref_automaton, 2)
    b = write_lsta(ref_automaton, 2)
    assert a == b
    assert a.splitlines()[0] == "lsta v1"
    assert "semiring complex" in a
    assert "qubits 2" in a


def test_write_lsta_lists_each_transition_once(ref_automaton):
    text = write_lsta(ref_automaton, 2)
    body = [ln for ln in text.splitlines() if ln.startswith(("i ", "l "))]
    assert len(body) == ref_automaton.size
    assert any("-> 1/sqrt2" in ln for ln in body)


def test_write_lsta_carries_the_constraint_line(ref_automaton):
    text = write_lsta(ref_automaton, 2, constraint="re(a) = 0")
    assert "constraint re(a) = 0" in text
