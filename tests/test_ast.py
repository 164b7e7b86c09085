"""Length inference, scoping, and static well-formedness rules."""

from __future__ import annotations

import random

import pytest

from lstaq import ast as A
from lstaq.build import slice_expansions, translate
from lstaq.errors import (
    ConflictingLengthError,
    LengthMismatchError,
    RedundantSummationVarError,
    ScopeError,
    UnknownLengthError,
)
from lstaq.parser import parse
from lstaq.preprocess import canonicalize
from tests.test_acceptance import random_source


def lengths_of(src: str) -> A.LengthMap:
    ast = parse(src)
    lengths = A.infer_lengths(ast)
    A.check_well_formed(ast, lengths)
    return lengths


def test_explicit_length_constraints_resolve():
    assert lengths_of("{ sum[ |i| = 2 ] |i> }") == {"i": 2}


def test_lengths_propagate_by_position():
    # |i| = 2 pins the dirac width at 3 via the second dirac, so j gets 1.
    got = lengths_of("{ |i j>, |0 0 0> : |i| = 2 }")
    assert got == {"i": 2, "j": 1}


def test_lengths_propagate_through_inequalities():
    got = lengths_of("{ sum[ |i| = 2, i != j ] |i j> }")
    assert got == {"i": 2, "j": 2}


def test_complement_shares_its_variables_length():
    got = lengths_of("{ sum[ |i| = 3 ] |i ~i> }")
    assert got == {"i": 3}


def test_conflicting_lengths_are_rejected():
    with pytest.raises(ConflictingLengthError):
        lengths_of("{ sum[ |i| = 1, |j| = 2, i != j ] |i j> }")


def test_underdetermined_lengths_are_rejected():
    with pytest.raises(UnknownLengthError):
        lengths_of("{ sum[ i != j ] |i j> }")


def test_diracs_of_one_set_must_agree_on_width():
    with pytest.raises(LengthMismatchError):
        lengths_of("{ |0>, |0 0> }")


def test_constant_comparand_must_match_the_variables_length():
    with pytest.raises((LengthMismatchError, ConflictingLengthError)):
        lengths_of("{ sum[ |i| = 2, i != 011 ] |i 0> }")


def test_summation_variable_must_occur_in_its_ket():
    with pytest.raises(RedundantSummationVarError):
        lengths_of("{ sum[ |k| = 1 ] |0> }")


def test_predicate_variables_must_occur_in_patterns():
    with pytest.raises(ScopeError):
        translate([parse("{ |0> : |k| = 1 }")])


# ---------------------------------------------------------------------------
# Variable classification.
# ---------------------------------------------------------------------------


def test_outer_vars_are_the_union_indexing_ones():
    ast = parse("{ sum[ |j| = 1 ] |i j> : |i| = 1 }")
    (sq,) = list(ast.setqs())
    assert A.outer_vars(sq.predicate, sq.terms()) == ("i",)
    (term,) = sq.diracs[0]
    assert A.inner_vars(term, ("i",)) == ("j",)


def test_free_pattern_vars_are_outer_even_without_a_predicate():
    ast = parse("{ sum[ |j| = 1 ] |i j>, |0 0 0> }")
    (sq,) = list(ast.setqs())
    assert "i" in A.outer_vars(sq.predicate, sq.terms())


def _reference_scopes(predicate, terms):
    """(outer, inner of each term), each a list in first-occurrence order."""
    def con_names(cons):
        return [v for c in cons for v in A.varcon_vars(c)]

    def ket_names(ts):
        return [a.name for t in ts for a in t.pattern
                if not isinstance(a, A.Const)]

    def first(names, member):
        order = []
        for v in names:
            if v in member and v not in order:
                order.append(v)
        return order

    outer = set(con_names(predicate))
    for t in terms:
        outer |= set(ket_names([t])) - set(con_names(t.sum_constraints))
    inner = [first(con_names(t.sum_constraints) + ket_names([t]),
                   set(con_names(t.sum_constraints)) - outer)
             for t in terms]
    return first(con_names(predicate) + ket_names(terms), outer), inner


def _check_scopes(predicate, terms) -> None:
    terms = list(terms)
    outer, inner = _reference_scopes(predicate, terms)
    assert A.outer_vars(predicate, terms) == tuple(outer)
    assert [A.inner_vars(t, outer) for t in terms] == [tuple(i) for i in inner]


# A ket variable free in one term and summed in another is outer; one that
# no constraint names is outer too.
SCOPED = ["{ sum[ |i| = 1 ] |i j> + |j i> : |j| = 1 }",
          "{ sum[ |j| = 1, j != k ] |k j i>, |k 0 0> : |k| = 1 }"]


def test_scoping_order_matches_a_first_occurrence_reference():
    """Source, canonical and projected sets, on fixed and random specs."""
    rng = random.Random(0x5C0BE)
    sources = SCOPED + [random_source(rng) for _ in range(100)]
    for src in sources:
        ast = parse(src)
        for sq in ast.setqs():
            _check_scopes(sq.predicate, sq.terms())
        for sq in canonicalize(ast).setqs():
            _check_scopes(sq.predicate, sq.terms())
        for _ai, _seg, v, _table, _slices in slice_expansions(translate([ast])):
            _check_scopes(v.predicate, v.terms)


def test_pattern_width_counts_constants_and_variables():
    ast = parse("{ sum[ |i| = 2 ] |1 i 0 0> }")
    (sq,) = list(ast.setqs())
    (term,) = sq.diracs[0]
    assert A.pattern_width(term.pattern, {"i": 2}) == 5


def test_varcon_vars():
    assert A.varcon_vars(A.Len("v", 2)) == ("v",)
    assert A.varcon_vars(A.NeqVar("v", "w")) == ("v", "w")
    assert A.varcon_vars(A.NeqConst("v", "01")) == ("v",)
    assert A.varcon_vars(A.EqConst("v", "0")) == ("v",)


def test_ccons_vars_collects_amplitude_names():
    ast = parse("bigU[ re(ah) = 0 && |al|^2 > 1/2 ] { ah |0> + al |1> }")
    assert A.ccons_vars(ast.constraint) == frozenset({"ah", "al"})


def _nested_terms(sq: A.SetQ) -> list[A.Term]:
    return [t for dirac in sq.diracs for t in dirac]


def _nested_constraints(predicate, terms) -> list[A.VarCon]:
    out = list(predicate)
    for t in terms:
        out += t.sum_constraints
    return out


def _check_walks(ast: A.AssertionAst) -> None:
    """``terms()`` and ``constraints()`` agree with spelled-out loops."""
    assert list(ast.terms()) == [
        t for seg in ast.segments for sq in seg.base.alternatives
        for t in _nested_terms(sq)]
    for seg in ast.segments:
        assert list(seg.terms()) == [
            t for sq in seg.base.alternatives for t in _nested_terms(sq)]
    for sq in ast.setqs():
        assert list(sq.terms()) == _nested_terms(sq)
        assert list(sq.constraints()) == _nested_constraints(
            sq.predicate, _nested_terms(sq))


def _check_aligned_walks(asts) -> None:
    for assertion in translate(asts).aligned.assertions:
        for alts in assertion.segments:
            for sp in alts:
                assert list(sp.constraints()) == _nested_constraints(
                    sp.predicate, sp.terms)


# Two segments, a union, two kets, summations and a predicate.
WALKED = ("{ a sum[ |i| = 1 ] |i k> + b sum[ |j| = 1, j != k ] |j k>,"
          " c |k 1> : |k| = 1 } \\/ { d |0 0> } (x) { e |1> + f |0> }")


def test_setqs_walks_every_set_in_every_segment():
    ast = parse("{ |0> } \\/ { |1> } (x) { |1 1> }")
    assert len(list(ast.setqs())) == 3

    ast = parse(WALKED)
    assert [str(t.amplitude) for t in ast.terms()] == list("abcdef")
    first = next(ast.setqs())
    assert list(first.constraints()) == [
        A.Len("k", 1), A.Len("i", 1), A.Len("j", 1), A.NeqVar("j", "k")]
    _check_walks(ast)
    _check_aligned_walks([ast])

    rng = random.Random(11)
    for _ in range(100):
        ast = parse(random_source(rng))
        _check_walks(ast)
        _check_aligned_walks([ast])
