"""Automaton structure, language enumeration, union and tensor laws."""

from __future__ import annotations

import dataclasses
import random
import time

import pytest

import lstaq.lsta as L
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
    tensor_chain,
    union,
    union_all,
    validate,
    write_lsta,
)
from lstaq.parser import parse, parse_many, render_formula
from tests.conftest import cpoly, normalize, vec

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


# ---------------------------------------------------------------------------
# The root-only test: when the root is the only top with several
# transitions, validate tests choice distinctness at the root alone.
# ---------------------------------------------------------------------------


@pytest.fixture
def distinct_calls(monkeypatch) -> list:
    """Records each call of the general distinctness test, and checks that
    each set-wide test, one a ``validate``, makes at most one."""
    calls = []
    general, holds = L._distinct, L._holds

    def recording(tops, choices):
        calls.append(len(tops))
        return general(tops, choices)

    def once(a):
        before = len(calls)
        held = holds(a)
        assert len(calls) - before <= 1
        return held

    monkeypatch.setattr(L, "_distinct", recording)
    monkeypatch.setattr(L, "_holds", once)
    return calls


TWO_LEAVES = [ONE_LEAF, Leaf(2, ONE, cpoly("0"))]


def test_two_root_transitions_sharing_a_choice_are_named_at_the_root(distinct_calls):
    a = mk_lsta(COMPLEX, 0, [Internal(0, ONE, 1, 2), Internal(0, ONE, 2, 1)], TWO_LEAVES)
    err = _validate_error(a)
    assert type(err) is ChoiceOverlapError
    assert str(err) == "state 0 has two transitions sharing choice 1"
    assert distinct_calls == []


def test_a_second_transition_off_the_root_leaves_the_decision_to_the_general_test(
        distinct_calls):
    internal = [Internal(0, ONE, 1, 2), Internal(0, frozenset({2}), 2, 1)]
    leaves = [*TWO_LEAVES, Leaf(1, ONE, cpoly("1"))]
    err = _validate_error(mk_lsta(COMPLEX, 0, internal, leaves))
    assert type(err) is ChoiceOverlapError
    assert str(err) == "state 1 has two transitions sharing choice 1"
    assert len(distinct_calls) == 1
    # Disjoint, the same shape validates, again by the general test.
    leaves[-1] = Leaf(1, frozenset({2}), cpoly("1"))
    validate(mk_lsta(COMPLEX, 0, internal, leaves))
    assert len(distinct_calls) == 2


def test_an_empty_choice_set_off_the_root_is_named_by_the_root_only_test(distinct_calls):
    internal = [Internal(0, ONE, 1, 2), Internal(0, frozenset({2}), 2, 1)]
    leaves = [ONE_LEAF, Leaf(2, frozenset(), cpoly("0"))]
    err = _validate_error(mk_lsta(COMPLEX, 0, internal, leaves))
    assert type(err) is InternalError
    assert str(err) == "transition from state 2 has no choices"
    assert distinct_calls == []


def test_overlapping_multi_choice_root_sets_are_named_at_the_root(distinct_calls):
    internal = [Internal(0, frozenset({1, 2}), 1, 2), Internal(0, frozenset({3}), 2, 2),
                Internal(0, frozenset({2, 4}), 2, 1)]
    err = _validate_error(mk_lsta(COMPLEX, 0, internal, TWO_LEAVES))
    assert type(err) is ChoiceOverlapError
    assert str(err) == "state 0 has two transitions sharing choice 2"
    # Pairwise disjoint, the same sets validate.
    disjoint = [*internal[:2], Internal(0, frozenset({4, 5}), 2, 1)]
    validate(mk_lsta(COMPLEX, 0, disjoint, TWO_LEAVES))
    assert distinct_calls == []


def test_a_cases_automaton_and_a_run_bearing_union_take_the_root_only_test(distinct_calls):
    from tests.test_qubit_reorder import neq_graph

    (cases,) = translate([parse(neq_graph("cycle", 8))]).assertions
    a = cases.automaton
    piece = single_member({"0": "1", "1": "0"})
    union = union_all([tensor_chain([piece] * 6)[0], tensor_chain([piece] * 5)[0], piece])
    assert union._blocks is not None
    root_transitions = sum(t.top == a.root for t in a.internal)
    assert root_transitions == 2 ** 8 and a.size > 4000
    for b in (a, union):
        validate(b)
    assert distinct_calls == []


def test_runs_with_several_interface_transitions_a_top_are_tested_once(distinct_calls):
    # Each frontier state takes an interface transition per root transition
    # of the piece, so the windows' tops repeat: the general test decides,
    # once, over the records and every run's first window.
    both = mk_lsta(COMPLEX, 0, [Internal(0, ONE, 1, 2), Internal(0, frozenset({2}), 2, 1)],
                   TWO_LEAVES)
    union = union_all([tensor_chain([both] * 6)[0], tensor_chain([both] * 5)[0], both])
    runs = union._blocks[1::2]
    assert len(runs) == 2
    for run in runs:
        tops = [t for t, _k, _l, _r in run.tpl.faces]
        assert len(set(tops)) < len(tops)
    validate(union)
    assert len(distinct_calls) == 1


def _holds_by_pairs(a: Lsta) -> bool:
    """``L._holds`` of an explicit automaton, with distinctness tested over
    every (top, choice) pair, as the general test does."""
    transitions = (*a.internal, *a.leaves)
    pairs = [(t.top, c) for t in transitions for c in t.choices]
    tops = {t.top for t in transitions}
    n = len(a.states)
    return (all(t.choices for t in transitions) and len(set(pairs)) == len(pairs)
            and 0 <= a.root < n and tops == set(range(n))
            and all(t.left in tops and t.right in tops for t in a.internal))


def test_the_root_only_test_accepts_exactly_what_the_pair_test_accepts():
    # Every id leaves by one transition, and extra ones go mostly to the
    # root; small choice sets, sometimes empty, often overlap.
    rng = random.Random(0x2007)
    seen = {(True, True): 0, (True, False): 0, (False, True): 0, (False, False): 0}

    def transition(top, n):
        cs = frozenset(rng.sample(range(1, 6), rng.choices((0, 1, 2), (1, 30, 10))[0]))
        if rng.random() < 0.6:
            return Internal(top, cs, rng.randrange(n), rng.randrange(n))
        return Leaf(top, cs, cpoly("1"))

    for _ in range(2000):
        n = rng.randint(1, 5)
        extra = [0 if rng.random() < 0.7 else rng.randrange(n) for _ in range(rng.randint(0, 4))]
        transitions = [transition(top, n) for top in [*range(n), *extra]]
        rng.shuffle(transitions)
        a = Lsta(COMPLEX, range(n), 0,
                 tuple(t for t in transitions if isinstance(t, Internal)),
                 tuple(t for t in transitions if isinstance(t, Leaf)))
        tops = [t.top for t in transitions]
        root_only = tops.count(0) == len(tops) - len(set(tops)) + 1
        want = _holds_by_pairs(a)
        assert L._holds(a) == want, a
        seen[root_only, want] += 1
    assert min(seen.values()) > 50, seen


# ---------------------------------------------------------------------------
# Fault injection: each fault, put into a translated automaton, must fail
# validate's set-wide tests and be named by its ordered scan.
# ---------------------------------------------------------------------------


FAMILIES = ("bv", "ghz", "grover", "groveriter", "mctoffoli")


def _family_batches():
    """The assertion batches that translate the families at n=2..4."""
    for family in FAMILIES:
        for n in (2, 3, 4):
            for pre, post, joint in bench_sources(family, n):
                yield from ([parse_many(pre) + parse_many(post)] if joint
                            else [parse_many(pre), parse_many(post)])


def _family_automata() -> list[Lsta]:
    return [ar.automaton for asts in _family_batches()
            for ar in translate(asts).assertions]


def _with_internal(a: Lsta, index: int, **fields) -> Lsta:
    """``a`` with ``fields`` of its ``index``-th internal transition replaced."""
    internal = list(a.internal)
    internal[index] = internal[index]._replace(**fields)
    return dataclasses.replace(a, internal=tuple(internal))


def _sibling_pairs(a: Lsta) -> list[tuple[int, int]]:
    """(i, j), i < j, for each top's first two internal transitions."""
    first: dict[int, int] = {}
    pairs = []
    for j, t in enumerate(a.internal):
        if t.top not in first:
            first[t.top] = j
        elif first[t.top] is not None:
            pairs.append((first[t.top], j))
            first[t.top] = None
    return pairs


def _overlap(a: Lsta, i: int, j: int) -> tuple[Lsta, int]:
    """``a`` with transitions ``i`` and ``j`` given overlapping multi-choice
    sets: ``i`` takes the smallest choice of ``j``, which takes a new one."""
    shared = min(a.internal[j].choices)
    fresh = max(c for t in a.internal for c in t.choices) + 1
    a = _with_internal(a, i, choices=a.internal[i].choices | {shared})
    return _with_internal(a, j, choices=a.internal[j].choices | {fresh}), shared


def _validate_error(a: Lsta) -> InternalError:
    with pytest.raises(InternalError) as err:
        validate(a)
    return err.value


def test_a_dangling_root_is_named_in_translated_automata():
    for a in _family_automata():
        ghost = max(a.states) + 1
        err = _validate_error(dataclasses.replace(a, root=ghost))
        assert isinstance(err, DanglingStateError) and err.state == ghost


@pytest.mark.parametrize("field", ["top", "left", "right"])
def test_a_dangling_internal_state_is_named_in_translated_automata(field):
    for a in _family_automata():
        ghost = max(a.states) + 1
        for index in (0, len(a.internal) // 2, len(a.internal) - 1):
            err = _validate_error(_with_internal(a, index, **{field: ghost}))
            assert isinstance(err, DanglingStateError) and err.state == ghost


def test_a_dangling_leaf_top_is_named_in_translated_automata():
    for a in _family_automata():
        ghost = max(a.states) + 1
        leaves = list(a.leaves)
        leaves[len(leaves) // 2] = leaves[len(leaves) // 2]._replace(top=ghost)
        err = _validate_error(dataclasses.replace(a, leaves=tuple(leaves)))
        assert isinstance(err, DanglingStateError) and err.state == ghost


def _with_id_skipped(a: Lsta, k: int, states) -> Lsta:
    """``a`` with every id from ``k`` up moved up by one, so that no
    transition leaves ``k``, over the state set ``states``."""
    def up(s: int) -> int:
        return s + (s >= k)
    return Lsta(a.semiring, states, up(a.root),
                tuple(Internal(up(t.top), t.choices, up(t.left), up(t.right)) for t in a.internal),
                tuple(Leaf(up(t.top), t.choices, t.amplitude) for t in a.leaves))


def test_an_id_gap_is_named_in_translated_automata():
    for a in _family_automata():
        n = len(a.states)
        for k in (0, n // 2, n - 1):
            gap = _with_id_skipped(a, k, frozenset(s + (s >= k) for s in a.states))
            err = _validate_error(gap)
            assert isinstance(err, DanglingStateError) and err.state == k
            assert str(err) == f"the state ids skip {k}"


def test_an_id_without_a_transition_is_named_in_translated_automata():
    for a in _family_automata():
        n = len(a.states)
        for k in (0, n // 2, n):
            ghost = _with_id_skipped(a, k, range(n + 1))
            err = _validate_error(ghost)
            assert isinstance(err, DanglingStateError) and err.state == k
            assert str(err) == f"no transition leaves state {k}"


def test_every_constructor_numbers_its_states_0_to_n_minus_1():
    piece = single_member({"0": "1", "1": "0"})
    explicit, run_bearing = tensor_chain([piece, piece])[0], tensor_chain([piece] * 6)[0]
    assert explicit._blocks is None and run_bearing._blocks is not None
    setq = build_setq_lsta([vec(1, {"0": "1"}), vec(1, {"1": "1"})], COMPLEX)
    for a in (setq, union_all([setq, piece]), explicit, run_bearing,
              map_leaves(explicit, lambda v: v + v), map_leaves(run_bearing, lambda v: v + v),
              piece, normalize(run_bearing)):
        assert type(a.states) is range and a.states == range(len(a.states))
        validate(a)


def test_an_id_that_mk_lsta_skips_is_one_that_no_transition_leaves():
    a = mk_lsta(COMPLEX, 0, [Internal(0, ONE, 1, 3)], [ONE_LEAF, Leaf(3, ONE, cpoly("0"))])
    assert a.states == range(4)
    err = _validate_error(a)
    assert isinstance(err, DanglingStateError) and str(err) == "no transition leaves state 2"


def test_a_gap_free_state_set_validates_as_its_range():
    internal, leaves = (Internal(0, ONE, 1, 2),), (ONE_LEAF, Leaf(2, ONE, cpoly("0")))
    validate(Lsta(COMPLEX, frozenset({2, 0, 1}), 0, internal, leaves))
    err = _validate_error(Lsta(COMPLEX, frozenset({0, 1, 2, 3}), 0, internal, leaves))
    assert isinstance(err, DanglingStateError) and str(err) == "no transition leaves state 3"


def test_an_empty_choice_set_is_named_in_translated_automata():
    for a in _family_automata():
        index = len(a.internal) // 2
        err = _validate_error(_with_internal(a, index, choices=frozenset()))
        assert type(err) is InternalError
        assert str(err) == f"transition from state {a.internal[index].top} has no choices"


def test_overlapping_multi_choice_sets_are_named_in_translated_automata():
    tested = 0
    for a in _family_automata():
        for i, j in _sibling_pairs(a):
            bad, shared = _overlap(a, i, j)
            err = _validate_error(bad)
            assert isinstance(err, ChoiceOverlapError)
            assert (err.state, err.choice) == (a.internal[i].top, shared)
            tested += 1
    assert tested > 100


def test_a_repeated_singleton_choice_is_named_in_translated_automata():
    # Every choice set here is a singleton, which validate tests as whole
    # sets; the multi-choice injections above reach its general test.
    for a in _family_automata():
        assert all(len(t.choices) == 1 for t in (*a.internal, *a.leaves))
        for k in (0, len(a.internal) // 2, len(a.internal) - 1):
            t = a.internal[k]
            internal = (*a.internal[:k + 1], t._replace(left=t.right, right=t.left),
                        *a.internal[k + 1:])
            err = _validate_error(dataclasses.replace(a, internal=internal))
            assert isinstance(err, ChoiceOverlapError)
            assert (err.state, err.choice) == (t.top, min(t.choices))
        leaf = a.leaves[-1]
        err = _validate_error(dataclasses.replace(a, leaves=(*a.leaves, leaf)))
        assert isinstance(err, ChoiceOverlapError)
        assert (err.state, err.choice) == (leaf.top, min(leaf.choices))


def test_of_two_overlaps_the_first_in_transition_order_is_named():
    tested = 0
    for a in _family_automata():
        pairs = _sibling_pairs(a)
        # The later-listed overlap is injected first, so that order of
        # injection cannot decide which is named.
        for (i, j), (k, l) in zip(pairs, pairs[1:]):
            bad, second = _overlap(a, k, l)
            bad, first = _overlap(bad, i, j)
            err = _validate_error(bad)
            assert isinstance(err, ChoiceOverlapError)
            assert (err.state, err.choice) == (a.internal[i].top, first)
            tested += 1
    assert tested > 100


def test_enumeration_limit_is_enforced(ref_automaton):
    # The two root choices lead to two distinct frontiers of one live position.
    with pytest.raises(LimitExceededError, match="^enumeration exceeded the limit of 1"
                       " distinct frontiers at one level$"):
        enumerate_language(ref_automaton, 2, limit=1)


def test_a_language_past_the_limit_names_its_states():
    # One frontier of two live positions, whose three leaf choices give
    # three members.
    leaves = [Leaf(q, frozenset({c}), cpoly(v)) for q in (1, 2)
              for c, v in ((1, "1"), (2, "i"), (3, "-1"))]
    a = mk_lsta(COMPLEX, 0, [Internal(0, ONE, 1, 2)], leaves)
    assert len(enumerate_language(a, 1, limit=3)) == 3
    with pytest.raises(LimitExceededError, match="^enumeration exceeded the limit of 2"
                       " states in the language$"):
        enumerate_language(a, 1, limit=2)


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
    for asts in _family_batches():
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
    assert membership(a, vec(2, {"00": "1", "01": "1"}))
    assert not membership(a, vec(2, {"00": "i", "01": "i"}))


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
    with pytest.raises(LimitExceededError, match="limit of 100000 live positions at one level"):
        enumerate_language(result.assertions[0].automaton, result.qubits)
    assert time.perf_counter() - t0 < 10


def test_a_level_is_bounded_by_its_live_positions_in_all():
    # 16 members of 16 entries: the last level holds 16 frontiers of 16
    # live positions, so each frontier, the frontiers and the members stay
    # within 16, while the level holds 256 live positions.
    result = translate([parse("{ |x> + sum[ |i| = 4 ] |i> : |x| = 4 }")])
    a = result.assertions[0].automaton
    assert len(enumerate_language(a, result.qubits, limit=256)) == 16
    with pytest.raises(LimitExceededError, match="limit of 255 live positions at one level"):
        enumerate_language(a, result.qubits, limit=255)


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


def _out_of_choice_order(a: Lsta) -> list:
    """The transitions stored after one of the same kind and top whose
    smallest choice is not smaller: what the order rule forbids."""
    late = []
    for transitions in (a.internal, a.leaves):
        last: dict[int, int] = {}
        for t in transitions:
            if last.get(t.top, -1) >= min(t.choices):
                late.append(t)
            last[t.top] = min(t.choices)
    return late


def test_every_construction_stores_transitions_in_choice_order():
    from tests.test_acceptance import _random_automaton

    built = _family_automata() + [ar.automaton for ar, _n in _random_spec_results()]
    rng = random.Random(0x0DE5)
    for _ in range(60):
        n = rng.randint(1, 4)
        pieces = [_random_automaton(rng, n) for _ in range(rng.randint(2, 4))]
        last = _random_automaton(rng, rng.randint(1, 3))
        chained = tensor_chain([*pieces, last, last, last])[0]
        built += [*pieces, union_all(pieces), chained, map_leaves(chained, lambda v: v + v)]
    assert sum(len(a.states) for a in built) > 10_000
    for a in built:
        assert _out_of_choice_order(a) == []


def test_a_fresh_root_takes_choices_1_to_k_in_order():
    # The choice rule of a union's and a set's fresh root, which the fold
    # comparisons, made up to a renumbering of each level's choices, leave
    # to this test and the byte pins.
    from tests.test_acceptance import _random_automaton, _random_vector

    rng = random.Random(0xF4E5)
    for _ in range(40):
        n = rng.randint(1, 3)
        members = [_random_vector(rng, n) for _ in range(rng.randint(1, 5))]
        pieces = [_random_automaton(rng, n) for _ in range(rng.randint(2, 4))]
        roots = sum(t.top == p.root for p in pieces for t in p.internal)
        for a, k in ((build_setq_lsta(members, COMPLEX), len(members)),
                     (union_all(pieces), roots)):
            assert [t.choices for t in a.internal if t.top == a.root] == [
                frozenset({c}) for c in range(1, k + 1)]


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


def test_map_leaves_calls_fn_once_per_distinct_value_in_first_occurrence_order(ref_automaton):
    a = dataclasses.replace(ref_automaton, leaves=ref_automaton.leaves * 3)
    seen = []
    got = map_leaves(a, lambda v: seen.append(v) or v * cpoly("i"))
    assert seen == [cpoly(x) for x in ("1/sqrt2", "-1/sqrt2", "0", "i/sqrt2", "-i/sqrt2")]
    assert [t.amplitude for t in got.leaves] == [t.amplitude * cpoly("i") for t in a.leaves]


def _checked_map_leaves(a: Lsta, fn, semiring=None) -> Lsta:
    """``map_leaves``, asserting it against applying ``fn`` leaf by leaf."""
    seen = []
    got = map_leaves(a, lambda v: seen.append(v) or fn(v), semiring)
    assert seen == list(dict.fromkeys(t.amplitude for t in a.leaves))
    assert got.leaves == tuple(Leaf(t.top, t.choices, fn(t.amplitude)) for t in a.leaves)
    assert (got.states, got.root, got.internal) == (a.states, a.root, a.internal)
    assert got.semiring is (semiring or a.semiring)
    return got


def test_map_leaves_equals_per_leaf_application_in_translation(monkeypatch):
    from lstaq import build
    from tests.test_acceptance import random_source

    calls = []
    monkeypatch.setattr(build, "map_leaves",
                        lambda *args: calls.append(1) or _checked_map_leaves(*args))
    for asts in _family_batches():
        translate(asts)
    rng = random.Random(0x3A9)
    for _ in range(200):
        translate([parse(random_source(rng))])
    assert len(calls) > 400


def test_permute_state_reorders_positions():
    psi = vec(3, {"100": "1"})
    assert permute_state(psi, (2, 3, 1)) == vec(3, {"001": "1"})
    assert permute_state(psi, (1, 2, 3)) == psi


def test_the_identity_permutation_returns_the_state_itself():
    rng = random.Random(0x51D)
    for n in range(1, 7):
        for _ in range(20):
            strings = rng.sample(range(1 << n), rng.randint(0, min(6, 1 << n)))
            psi = vec(n, {format(x, f"0{n}b"): rng.choice(["1", "-1", "i", "1/sqrt2"])
                          for x in strings})
            identity = tuple(range(1, n + 1))
            assert permute_state(psi, identity) is psi
            # The general path, for the identity and for another order:
            # every string reindexed, then the entries sorted.
            for order in (identity, tuple(rng.sample(identity, n))):
                general = tuple(sorted(("".join(s[p - 1] for p in order), v)
                                       for s, v in psi.entries))
                assert permute_state(psi, order) == (n, general)


def test_substitute_state_drops_vanishing_entries():
    sv = StateVector.of(1, {"0": AmplitudePoly.var("a"),
                            "1": AmplitudePoly.from_int(1)}, COMPLEX)
    out = substitute_state(sv, {"a": cpoly("0").constant_value})
    assert out == vec(1, {"1": "1"})


@pytest.mark.parametrize("expr", [
    lambda: StateVector(1, ()) * 2,
    lambda: 2 * StateVector(1, ()),
    lambda: StateVector(1, ()) + StateVector(1, ()),
    lambda: StateVector(1, ()) < StateVector(2, ()),
    lambda: sorted({vec(1, {"0": "1"}), vec(1, {"1": "1"})}),
])
def test_tuple_operators_are_not_lent_to_state_vectors(expr):
    with pytest.raises(TypeError):
        expr()


def test_state_vectors_hash_and_compare_as_tuples():
    # A mismatch witness prints this repr; a Python-level hash or equality
    # would run a frame on every set lookup of the oracle.
    assert repr(vec(1, {"1": "1"})) == (
        "StateVector(n=1, entries=(('1', AmplitudePoly(terms=(((), "
        "AlgebraicComplex(a=1, b=0, c=0, d=0, k=0)),))),))")
    assert StateVector.__hash__ is tuple.__hash__
    assert StateVector.__eq__ is tuple.__eq__
    assert StateVector.__ne__ is tuple.__ne__


def test_substitute_state_keeps_unbound_variables_an_error():
    sv = StateVector.of(1, {"0": AmplitudePoly.var("a"),
                            "1": AmplitudePoly.var("b")}, COMPLEX)
    theta = {"a": cpoly("1").constant_value}
    with pytest.raises(UnboundComplexVarError):
        substitute_state(sv, theta)


# ---------------------------------------------------------------------------
# Serialization.
# ---------------------------------------------------------------------------


def reference_write_lsta(a: Lsta, n: int, constraint: str | None = None) -> str:
    """``write_lsta`` as it was before it relied on the order rule: each
    kind's transitions sorted by top, then by smallest choice."""
    def choices(cs: frozenset[int]) -> str:
        return "{%s}" % ",".join(str(c) for c in sorted(cs))

    lines = [
        "lsta v1",
        f"semiring {a.semiring.name}",
        f"qubits {n}",
        "vars" + "".join(f" {v}" for v in sorted(
            frozenset().union(*(a.semiring.variables(t.amplitude) for t in a.leaves)))),
        f"root {a.root}",
    ]
    for t in sorted(a.internal, key=lambda t: (t.top, min(t.choices))):
        lines.append(f"i {t.top} {choices(t.choices)} -> {t.left} {t.right}")
    for t in sorted(a.leaves, key=lambda t: (t.top, min(t.choices))):
        lines.append(f"l {t.top} {choices(t.choices)} -> {a.semiring.render(t.amplitude)}")
    if constraint:
        lines.append(f"constraint {constraint}")
    return "\n".join(lines) + "\n"


def _random_spec_results():
    """(assertion result, qubits) of 200 of the acceptance suite's random specs."""
    from tests.test_acceptance import random_source

    rng = random.Random(0x0DE5)
    for _ in range(200):
        result = translate([parse(random_source(rng))])
        yield result.assertions[0], result.qubits


def test_write_lsta_equals_the_sorting_reference_on_translated_automata():
    results = list(_random_spec_results())
    for asts in _family_batches():
        result = translate(asts)
        results += [(ar, result.qubits) for ar in result.assertions]
    assert sum(ar.constraint is not None for ar, _n in results) > 5
    for ar, n in results:
        side = None if ar.constraint is None else render_formula(ar.constraint)
        assert write_lsta(ar.automaton, n, side) == reference_write_lsta(ar.automaton, n, side)


def test_write_lsta_writes_transitions_in_stored_order():
    # Stored against the order rule, a state's transitions are written so.
    a = mk_lsta(COMPLEX, root=0,
                internal=[Internal(0, frozenset({2}), 1, 1), Internal(0, ONE, 1, 1)],
                leaves=[Leaf(1, ONE, AmplitudePoly.var("b")),
                        Leaf(1, frozenset({2}), AmplitudePoly.var("a"))])
    body = write_lsta(a, 1).splitlines()[3:]
    assert body == ["vars a b", "root 0", "i 0 {2} -> 1 1", "i 0 {1} -> 1 1",
                    "l 1 {1} -> b", "l 1 {2} -> a"]


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


@pytest.mark.parametrize("constraint", ["100% of %d", "{} {0} {a!r}", "%s %(x)s %% %"])
def test_write_lsta_writes_any_constraint_verbatim(ref_automaton, constraint):
    # The constraint is public input: no text of it is ever a format string.
    run_bearing = translate(parse_many(bench_sources("bv", 8)[0][0])).assertions[0].automaton
    assert run_bearing._blocks is not None
    for a in (ref_automaton, run_bearing):
        text = write_lsta(a, 2, constraint)
        assert text.endswith(f"\nconstraint {constraint}\n")
        assert text == reference_write_lsta(a, 2, constraint)


def test_blocks_of_one_slice_and_one_line_more_or_less_are_written_as_the_reference(
        monkeypatch):
    # A block of at most one slice, ``_SLICE // width`` lines, is one format
    # of its own length; a longer one is formatted in full slices and a
    # rest.  Each block kind, records, leaves and a run's windows, is
    # written with a slice of one line fewer, exactly as many and one more
    # than it has, and with the full slice.
    autos = [(translate(parse_many(bench_sources(family, 6)[0][0])).assertions[0].automaton,
              8) for family in ("bv", "ghz", "mctoffoli")]
    autos.append((build_setq_lsta([vec(2, {"00": "1", "11": "1"}), vec(2, {"01": "i"})],
                                  COMPLEX), 2))
    assert any(a._blocks is not None for a, _n in autos)
    blocks = []
    sliced = L._sliced

    def recorded(line, width, count, fields):
        blocks.append((line, width, count))
        return sliced(line, width, count, fields)

    with monkeypatch.context() as m:
        m.setattr(L, "_sliced", recorded)
        for a, n in autos:
            write_lsta(a, n)
    kinds = {"l" if line.startswith("l ") else "i" if line == "i %d %s -> %d %d\n" else "run"
             for line, _w, count in blocks if count > 1}
    assert kinds == {"i", "l", "run"}
    for _line, width, count in blocks:
        if count < 2:
            continue
        for per in (count - 1, count, count + 1):
            with monkeypatch.context() as m:
                m.setattr(L, "_SLICE", per * width)
                for a, n in autos:
                    assert write_lsta(a, n) == reference_write_lsta(a, n)
