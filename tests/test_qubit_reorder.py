"""Qubit slicing with valuation-dependent amplitudes.

The projected set under test has two terms over three equal-width slots:

    { t1 sum[|q|=2, |m|=2, p != q] |p q m>  +  t2 sum[|s|=2, |v|=2] |s z v>
      : |p| = 2, |z| = 2, p != z }

Slicing it at one qubit position enumerates the four assignments of
(p_j, z_j); each case is a 3-qubit state whose amplitudes record, per term,
which inequalities the chosen bits already satisfy.
"""

from __future__ import annotations

import dataclasses
import itertools
import random

import pytest

import lstaq.qubit_reorder as qubit_reorder
from lstaq import ast as A
from lstaq.amplitude import VAL_ZERO, VALUATION, ValAmp, valamp_add, valamp_mul
from lstaq.build import slice_expansions, translate
from lstaq.errors import InternalError, LimitExceededError
from lstaq.lsta import StateVector
from lstaq.parser import parse
from lstaq.qubit_reorder import (
    MAX_SLICE_ASSIGNMENTS,
    QubitSlice,
    SliceCase,
    constraint_table,
    expand_qubit_slices,
)
from tests.test_var_reorder import S_A, S_B


@pytest.fixture(scope="module")
def job():
    return translate([parse(f"{S_A} \\/ {S_B}")])


@pytest.fixture(scope="module")
def expansion(job):
    """(table, slices) for the inequality component of the second set."""
    second_uid = job.aligned.assertions[0].segments[0][1].uid
    for (_ai, _seg, setv, table, slices) in slice_expansions(job):
        if setv.uid == second_uid and setv.slots == (3, 5, 6):
            return setv, table, slices
    raise AssertionError("expected component not found")


def by_assignment(slc):
    return {tuple(b for _v, b in case.assignment): case.state for case in slc.cases}


def va(mapping: dict[int, tuple[bool, ...]]) -> ValAmp:
    return ValAmp.of(mapping)


def state(entries: dict[str, ValAmp]) -> StateVector:
    return StateVector.of(3, entries, VALUATION)


# ---------------------------------------------------------------------------
# Constraint table and slicing shape.
# ---------------------------------------------------------------------------


def test_inequality_lists_put_the_predicate_first(expansion):
    setv, table, _slices = expansion
    phi1, phi2 = table[1], table[2]
    assert len(phi1) == 2 and len(phi2) == 1
    assert isinstance(phi1[0], A.NeqVar) and isinstance(phi1[1], A.NeqVar)
    # the predicate inequality is shared as entry 0 of both lists
    assert phi2[0] == phi1[0]


def test_two_slices_with_four_cases_each(expansion):
    _setv, _table, slices = expansion
    assert [s.index for s in slices] == [1, 2]
    for s in slices:
        assert len(s.cases) == 4
        assert [tuple(b for _v, b in c.assignment) for c in s.cases] == [
            (0, 0), (0, 1), (1, 0), (1, 1)]


def test_assignment_variables_follow_first_occurrence_order(expansion):
    setv, _table, slices = expansion
    names = [v for v, _b in slices[0].cases[0].assignment]
    # (p, z): both named first by the predicate, p before z
    assert names[0] == setv.terms[0].pattern[0].name
    assert names[1] == setv.terms[1].pattern[1].name


# ---------------------------------------------------------------------------
# The four case states, pinned exactly.
# ---------------------------------------------------------------------------

T, F = True, False


def expected_cases():
    return {
        (0, 0): state({
            "000": va({1: (F, F), 2: (F,)}),
            "001": va({1: (F, F), 2: (F,)}),
            "010": va({1: (F, T)}),
            "011": va({1: (F, T)}),
            "100": va({2: (F,)}),
            "101": va({2: (F,)}),
        }),
        (0, 1): state({
            "000": va({1: (T, F)}),
            "001": va({1: (T, F)}),
            "010": va({1: (T, T), 2: (T,)}),
            "011": va({1: (T, T), 2: (T,)}),
            "110": va({2: (T,)}),
            "111": va({2: (T,)}),
        }),
        (1, 0): state({
            "000": va({2: (T,)}),
            "001": va({2: (T,)}),
            "100": va({1: (T, T), 2: (T,)}),
            "101": va({1: (T, T), 2: (T,)}),
            "110": va({1: (T, F)}),
            "111": va({1: (T, F)}),
        }),
        (1, 1): state({
            "010": va({2: (F,)}),
            "011": va({2: (F,)}),
            "100": va({1: (F, T)}),
            "101": va({1: (F, T)}),
            "110": va({1: (F, F), 2: (F,)}),
            "111": va({1: (F, F), 2: (F,)}),
        }),
    }


@pytest.mark.parametrize("slice_index", [0, 1])
def test_case_states_record_partial_inequality_truth(expansion, slice_index):
    _setv, _table, slices = expansion
    assert by_assignment(slices[slice_index]) == expected_cases()


def test_case_states_merge_coinciding_assignments(expansion):
    # In case (1,0) the strings 100,101 are reachable through both terms;
    # the valuation amplitude keeps one record per term.
    _setv, _table, slices = expansion
    third = by_assignment(slices[0])[(1, 0)]
    assert len(third.entries) == 6
    assert third.as_dict()["100"] == va({1: (T, T), 2: (T,)})


# ---------------------------------------------------------------------------
# Filters on smaller shapes.
# ---------------------------------------------------------------------------


def test_equality_predicates_filter_whole_cases():
    job = translate([parse("{ sum[ |i| = 2 ] |i j>, |i ~j> : j = 0 }")])
    for (_ai, _seg, setv, _table, slices) in slice_expansions(job):
        if any(isinstance(c, A.EqConst) for c in setv.predicate):
            for s in slices:
                assert [c.assignment for c in s.cases] == [((setv.predicate[0].var, 0),)]
            break
    else:
        raise AssertionError("no predicate-constrained component found")


def test_complemented_occurrences_flip_the_emitted_bit():
    job = translate([parse("{ sum[ |v| = 1 ] |v ~v> }")])
    ((_, _, _setv, _table, slices),) = slice_expansions(job)
    (slc,) = slices
    ((_, st),) = [(c.assignment, c.state) for c in slc.cases]
    assert {s for s, _v in st.entries} == {"01", "10"}


def test_dead_summand_cases_keep_explicit_zero_states():
    # The guard p = 0 sits under the summation but binds an outer variable,
    # so the p = 1 case sums over nothing and denotes the zero vector.
    job = translate([parse("{ sum[ p = 0 ] |p q> : |p| = 1, |q| = 1 }")])
    zero_cases = [
        c.assignment
        for (_ai, _seg, _setv, _table, slices) in slice_expansions(job)
        for s in slices
        for c in s.cases
        if c.state.is_zero
    ]
    assert len(zero_cases) == 1
    ((_, bit),) = zero_cases[0]
    assert bit == 1


def test_valamp_algebra_matches_the_slice_semantics():
    x = va({1: (T, F)})
    y = va({2: (T,)})
    assert valamp_add(x, y).as_dict() == {1: (T, F), 2: (T,)}
    assert valamp_mul(x, y) == VAL_ZERO
    assert valamp_mul(va({1: (T, F)}), va({1: (F, T)})).as_dict() == {1: (T, T)}


# ---------------------------------------------------------------------------
# Slices with equal constant columns share their cases.
# ---------------------------------------------------------------------------


def _ordered_vars(constraints, patterns, member):
    order = []
    for c in constraints:
        for name in A.varcon_vars(c):
            if name in member and name not in order:
                order.append(name)
    for pat in patterns:
        for atom in pat:
            if atom.name in member and atom.name not in order:
                order.append(atom.name)
    return order


def _reference_outer(v):
    """Union-indexing variables in first-occurrence order, worked out here."""
    outer = {name for c in v.predicate for name in A.varcon_vars(c)}
    for t in v.terms:
        summed = {name for c in t.sum_constraints for name in A.varcon_vars(c)}
        outer |= {a.name for a in t.pattern} - summed
    return _ordered_vars(v.predicate, [t.pattern for t in v.terms], outer)


def _reference_inner(t, outer):
    summed = {name for c in t.sum_constraints for name in A.varcon_vars(c)}
    return _ordered_vars(t.sum_constraints, [t.pattern], summed - outer)


def _bit(c: str) -> int:
    return 1 if c == "1" else 0


def _holds_eq(c: A.EqConst, phi: dict[str, int], j: int) -> bool:
    return phi[c.var] == _bit(c.bits[j - 1])


def _truth(c: A.VarCon, phi: dict[str, int], j: int) -> bool:
    if isinstance(c, A.NeqVar):
        return phi[c.left] != phi[c.right]
    if isinstance(c, A.NeqConst):
        return phi[c.var] != _bit(c.bits[j - 1])
    raise AssertionError(f"{c} is not an inequality constraint")


def _reference_slices(v, lengths):
    """Every slice expanded on its own, one qubit index at a time.

    The variable order is computed here, not by ``ast.outer_vars``, so the
    comparison also checks the order of the cases.
    """
    (ell,) = {lengths[a.name] for t in v.terms for a in t.pattern}
    table = constraint_table(v)
    outer = _reference_outer(v)
    slices = []
    for j in range(1, ell + 1):
        cases = []
        for bits in itertools.product((0, 1), repeat=len(outer)):
            sigma = dict(zip(outer, bits))
            if not all(_holds_eq(c, sigma, j) for c in v.predicate
                       if isinstance(c, A.EqConst)):
                continue
            amp = {}
            for t in v.terms:
                inner = _reference_inner(t, set(outer))
                for ibits in itertools.product((0, 1), repeat=len(inner)):
                    phi = {**sigma, **dict(zip(inner, ibits))}
                    if not all(_holds_eq(c, phi, j) for c in t.sum_constraints
                               if isinstance(c, A.EqConst)):
                        continue
                    key = "".join(str(phi[a.name] ^ isinstance(a, A.Compl))
                                  for a in t.pattern)
                    d = ValAmp.of({t.tag: tuple(_truth(c, phi, j)
                                                for c in table[t.tag])})
                    amp[key] = valamp_add(amp[key], d) if key in amp else d
            cases.append(SliceCase(tuple(zip(outer, bits)),
                                   StateVector.of(len(v.slots), amp, VALUATION)))
        if not cases:  # no assignment passes the filters: the zero vector
            cases.append(SliceCase((), StateVector.of(len(v.slots), {}, VALUATION)))
        slices.append(QubitSlice(j, tuple(cases)))
    return table, slices


def _assert_matches_reference(src: str) -> None:
    job = translate([parse(src)])
    for (_ai, _seg, setv, table, slices) in slice_expansions(job):
        assert (table, list(slices)) == _reference_slices(setv, job.aligned.lengths), src


# Several terms whose keys collide, so entries are added with valamp_add.
COLLIDING = ("{ sum[ |j| = 2, j != 10 ] |j> + sum[ |k| = 2, k = 01 ] |~k>"
             " - sum[ |m| = 2, m != 11 ] |m> }")


@pytest.mark.parametrize("src", [
    "{ |i> : |i| = 4, i != 0110 }",
    "{ sum[ |j| = 4, j = 0101 ] |i j> : |i| = 4 }",
    "{ |i j> : |i| = 4, j = 0011, i != 1010 }",
    "{ sum[ |j| = 3, j != 011 ] |i j>, |i ~i> : |i| = 3, i != 110 }",
    f"{S_A} \\/ {S_B}",
    # Complemented atoms, NeqVar and NeqConst, EqConst in the predicate
    # and in a sum, and several terms.
    "{ |i ~j> : |i| = 2, |j| = 2, i != j, j != 00, i = 01 }",
    "{ sum[ |j| = 3, j != i, j = 011 ] |~j i> + sum[ |k| = 3, k != 110 ] |k ~i>"
    " : |i| = 3, i != 101, i = 110 }",
    "{ sum[ |j| = 2, j != 10 ] |j i> + sum[ |k| = 2, k != i ] |i k> + |i i>"
    " : |i| = 2, i != 01 }",
    COLLIDING,
    # One-contributor cases, which are evaluated by columns: a one-atom
    # pattern, whose itemgetter returns a character, with a complement; a
    # term filter on an outer variable; a column whose filters keep no
    # case, which gets the zero case, beside one that keeps one; outer
    # filters with a complement and a `!=` between variables.
    "{ |~x> : |x| = 1, x != 1 }",
    "{ sum[ p = 0 ] |p q> : |p| = 1, |q| = 1 }",
    "{ |i> : |i| = 2, i = 01, i = 00 }",
    "{ |i ~j> : |i| = 2, |j| = 2, i = 01, j = 11, i != j }",
    # Several contributors a case, and a column that keeps no case.
    "{ sum[ |j| = 2, j != i ] |~i j> + |i i> : |i| = 2, i = 01, i = 00 }",
])
def test_shared_slices_equal_the_per_index_expansion(src):
    _assert_matches_reference(src)


def test_colliding_keys_are_added_as_valuation_amplitudes(monkeypatch):
    added = []

    def recording(x, y):
        added.append((x, y))
        return valamp_add(x, y)

    monkeypatch.setattr(qubit_reorder, "valamp_add", recording)
    _assert_matches_reference(COLLIDING)
    assert added


@pytest.mark.parametrize("shape", ["chain", "cycle", "star"])
@pytest.mark.parametrize("k", range(1, 9))
def test_inequality_graphs_equal_the_per_index_expansion(shape, k):
    _assert_matches_reference(neq_graph(shape, k))


def test_shared_slices_equal_the_per_index_expansion_on_random_specs():
    from tests.test_acceptance import random_source

    rng = random.Random(0x511CE)
    for _ in range(200):
        _assert_matches_reference(random_source(rng))


def test_equal_constant_columns_share_one_cases_tuple():
    job = translate([parse("{ |i> : |i| = 4, i != 0110 }")])
    ((_, _, _setv, _table, slices),) = slice_expansions(job)
    # Columns 0, 1, 1, 0: the outer slices share, and so do the inner ones.
    assert slices[0].cases is slices[3].cases
    assert slices[1].cases is slices[2].cases
    assert slices[0].cases != slices[1].cases


def test_a_set_of_128_columns_evaluates_its_2_distinct_columns(monkeypatch):
    # Each distinct column is evaluated once, at its first qubit and in the
    # order of first occurrence; the slices then read their columns' cases.
    evaluated = []
    by_columns = qubit_reorder._by_columns

    def counted(*args):
        evaluated.append(by_columns(*args))
        return evaluated[-1]

    monkeypatch.setattr(qubit_reorder, "_by_columns", counted)
    job = translate([parse("{ |i> : |i| = 128, i != 1%s1 }" % ("0" * 126))])
    assert len(evaluated) == 2
    monkeypatch.undo()
    ((_, _, _setv, _table, slices),) = slice_expansions(job)
    assert [sl.index for sl in slices] == list(range(1, 129))
    assert [sl.cases for sl in slices[:2]] == evaluated
    assert slices[0].cases is slices[127].cases
    assert all(sl.cases is slices[1].cases for sl in slices[1:127])


@pytest.mark.parametrize("bits", ["011", "01101"])
def test_a_constant_of_another_length_is_an_internal_error(bits):
    # Transposed, a longer constant would add a column and a shorter one
    # drop one, without a word.
    job = translate([parse("{ |i> : |i| = 4, i != 0110 }")])
    ((_, _, setv, _table, _slices),) = slice_expansions(job)
    predicate = tuple(dataclasses.replace(c, bits=bits) if isinstance(c, A.NeqConst) else c
                      for c in setv.predicate)
    assert predicate != setv.predicate
    bad = dataclasses.replace(setv, predicate=predicate)
    with pytest.raises(InternalError) as err:
        expand_qubit_slices(bad, job.aligned.lengths)
    assert str(err.value) == (
        f"constant {bits} has {len(bits)} bits in a slot component of 4 qubits")


def neq_graph(shape: str, k: int) -> str:
    """One set over ``k`` 1-bit variables with a ``!=`` per edge of a chain,
    cycle or star; its one slice has a case per assignment, 2^k in all."""
    names = [f"v{i}" for i in range(k)]
    edges = {"chain": list(zip(names, names[1:])),
             "cycle": list(zip(names, names[1:] + names[:1])),
             "star": [(names[0], v) for v in names[1:]]}[shape]
    cons = [f"|{v}| = 1" for v in names] + [f"{a} != {b}" for a, b in edges]
    return f"{{ |{' '.join(names)}> : {', '.join(cons)} }}"


def test_slice_expansion_past_its_limit_raises_before_any_case(monkeypatch):
    def no_case(*args):
        raise AssertionError("a case was built past the limit")

    monkeypatch.setattr(qubit_reorder, "SliceCase", no_case)
    # One variable more than the largest chain the limit admits.
    k = MAX_SLICE_ASSIGNMENTS.bit_length()
    with pytest.raises(LimitExceededError) as err:
        translate([parse(neq_graph("chain", k))])
    assert err.value.exit_code == 4
    assert str(err.value) == (f"a qubit slice needs {2 ** k} assignments, "
                              f"over the limit of {MAX_SLICE_ASSIGNMENTS}")


def test_assignment_texts_up_to_eight_bits_are_built_once():
    for k in range(12):
        texts = qubit_reorder._values(k)
        assert texts == tuple("".join(bits) for bits in itertools.product("01", repeat=k))
        assert (texts is qubit_reorder._values(k)) == (k <= 8)
    assert sum(map(len, qubit_reorder._VALUES)) == 511


def test_slice_assignment_count_is_checked_against_the_limit(monkeypatch):
    monkeypatch.setattr(qubit_reorder, "MAX_SLICE_ASSIGNMENTS", 2 ** 5)
    translate([parse(neq_graph("chain", 5))])  # exactly at the limit
    with pytest.raises(LimitExceededError, match="needs 64 assignments"):
        translate([parse(neq_graph("chain", 6))])
    # Outer x and inner i in one slice: 2 cases of 2 summands each.
    src = "{ sum[ |i| = 1, i != x ] |i x> : |x| = 1 }"
    monkeypatch.setattr(qubit_reorder, "MAX_SLICE_ASSIGNMENTS", 4)
    translate([parse(src)])
    monkeypatch.setattr(qubit_reorder, "MAX_SLICE_ASSIGNMENTS", 3)
    with pytest.raises(LimitExceededError, match="needs 4 assignments"):
        translate([parse(src)])


@pytest.mark.parametrize("expr", [
    lambda: SliceCase((), StateVector(1, ())) + SliceCase((), StateVector(1, ())),
    lambda: 2 * SliceCase((), StateVector(1, ())),
    lambda: QubitSlice(1, ()) * 2,
    lambda: QubitSlice(1, ()) < QubitSlice(2, ()),
])
def test_tuple_operators_are_not_lent_to_slice_records(expr):
    with pytest.raises(TypeError):
        expr()


def test_slice_records_hash_and_compare_as_tuples():
    case = SliceCase((("x", 0),), StateVector(1, (("0", VAL_ZERO),)))
    assert repr(QubitSlice(2, (case,))) == (
        "QubitSlice(index=2, cases=(SliceCase(assignment=(('x', 0),), "
        "state=StateVector(n=1, entries=(('0', ValAmp(entries=())),))),))")
    for cls in (SliceCase, QubitSlice):
        assert cls.__hash__ is tuple.__hash__
        assert cls.__eq__ is tuple.__eq__
