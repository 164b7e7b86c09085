"""What ``translate``'s front end derives from its sources, and how often.

The front end infers each source's lengths and checks it once; the
canonical forms' lengths are the sources' renamed, the fresh-name pool is
the names the sources' length maps hold, and the occurrence intervals are
walked once.  Each set's scope is computed once per set object, and the
oracle reads the scopes the checks computed.  These are checked over the
acceptance suite's random specs and the five families at n <= 4.
"""

from __future__ import annotations

import random

import pytest

import lstaq.build as build_mod
import lstaq.preprocess as pre_mod
from lstaq import ast as A
from lstaq.build import translate
from lstaq.cli import BENCH_MIN_SIZE, bench_groups
from lstaq.oracle import differential_check
from lstaq.parser import parse, parse_many
from lstaq.preprocess import FreshNamer
from tests.test_acceptance import random_source


def _inputs() -> list[list[A.AssertionAst]]:
    groups = [[parse(t) for t in g]
              for family, least in BENCH_MIN_SIZE.items()
              for n in range(least, 5) for g in bench_groups(family, n)]
    rng = random.Random(0xF407)
    return groups + [[parse(random_source(rng))] for _ in range(150)]


INPUTS = _inputs()


@pytest.fixture
def calls(monkeypatch) -> dict[str, list]:
    """Records the first argument of each call of the front end's
    derivations, and the ket of each ``_ket_scope`` call."""
    seen: dict[str, list] = {}

    def recording(owner, name):
        real = getattr(owner, name)
        seen[name] = []

        def call(*args):
            seen[name].append(args[1] if name == "_ket_scope" else args[0])
            return real(*args)
        monkeypatch.setattr(owner, name, call)

    for name in ("infer_lengths", "check_well_formed", "check_inferable", "_ket_scope"):
        recording(A, name)
    recording(pre_mod, "_occurrence_intervals")
    monkeypatch.setattr(FreshNamer, "for_asts", classmethod(
        lambda cls, asts: pytest.fail("translate walked its sources for names")))
    return seen


def test_each_source_is_inferred_and_checked_once(calls):
    for asts in INPUTS:
        for seen in calls.values():
            seen.clear()
        translate(asts)
        for name in ("infer_lengths", "check_well_formed"):
            assert len(calls[name]) == len(asts), name
            assert all(x is ast for x, ast in zip(calls[name], asts)), name
        assert calls["check_inferable"] == []
        assert len(calls["_occurrence_intervals"]) == 1


def test_the_carried_lengths_and_name_pool_are_what_the_walks_found(monkeypatch):
    seen = {}
    real_canonicalize = build_mod.canonicalize
    real_check = build_mod.variable_alignment_check

    def canonicalize(ast, namer, origin):
        seen.setdefault("pool", set(namer.used))
        return real_canonicalize(ast, namer, origin)

    def variable_alignment_check(canon, lengths, seg_lengths):
        seen["canon"], seen["lengths"] = canon, lengths
        return real_check(canon, lengths, seg_lengths)

    monkeypatch.setattr(build_mod, "canonicalize", canonicalize)
    monkeypatch.setattr(build_mod, "variable_alignment_check", variable_alignment_check)
    for asts in INPUTS:
        seen.clear()
        translate(asts)
        assert seen["pool"] == FreshNamer.for_asts(asts).used
        inferred: A.LengthMap = {}
        for c in seen["canon"]:
            assert all(k.sized for sq in c.setqs() for k in sq.kets)
            inferred.update(A.infer_lengths(c))
        assert seen["lengths"] == inferred


def test_a_length_sized_by_position_is_checked_on_the_canonical_form(calls):
    # The second set's ``i`` takes its length from the first set's
    # constraint in the source, and from its sibling ket's width once
    # canonical.
    asts = parse_many("{ |i> : |i| = 1 } (x) { |i>, |1> }")
    result = translate(asts)
    assert len(calls["infer_lengths"]) == 1
    (checked,) = calls["check_inferable"]
    assert checked is not asts[0]
    assert result.aligned.lengths == {**A.infer_lengths(checked), "c0": 1}


def test_scopes_are_computed_once_a_set_and_shared_with_the_oracle(calls):
    asts = parse_many("{ sum[ |i| = 2, i != 10 ] |i j>, |0 0 j> : |j| = 1 } ;;"
                      " { |0 0 0> - |1 1 1> } \\/ { |k l> : |k| = 2, |l| = 1 } ^ 1")
    assert differential_check(asts).ok
    kets = [d for ast in asts for sq in ast.setqs() for d in sq.diracs]
    assert len(calls["_ket_scope"]) == len(kets)
    assert all(x is d for x, d in zip(calls["_ket_scope"], kets))
    for ast in asts:
        for sq in ast.setqs():
            assert sq.scope is sq.scope and sq.kets is sq.kets


def _reference_scope(sq: A.SetQ) -> tuple[set, list[set]]:
    outer = A.outer_vars(sq.predicate, sq.terms())
    return set(outer), [set(A.inner_vars(t, outer)) for t in sq.terms()]


def test_a_set_scope_is_the_one_outer_vars_and_inner_vars_give():
    for asts in INPUTS:
        for ast in asts:
            for sq in ast.setqs():
                outer, inner = _reference_scope(sq)
                assert set(sq.scope.outer) == outer
                assert [set(names) for names in sq.scope.inner] == inner
                for k, dirac in zip(sq.kets, sq.diracs):
                    assert k.outer == A.outer_vars(sq.predicate, dirac)
                    assert k.inner == tuple(A.inner_vars(t, k.outer) for t in dirac)


def _reference_counts(canonical: A.AssertionAst) -> dict:
    terms = list(canonical.terms())
    return {
        "n_term": len(terms),
        "n_vc": sum(1 for sq in canonical.setqs() for _ in sq.constraints()),
        "n_union": sum(len(seg.base.alternatives) for seg in canonical.segments),
        "n_amp": len({t.amplitude for t in terms}),
    }


def test_measure_counts_the_canonical_forms_from_their_sources():
    for asts in INPUTS:
        result = translate(asts)
        namer = FreshNamer.for_asts(asts)
        for ast, ar in zip(asts, result.assertions):
            want = _reference_counts(pre_mod.canonicalize(ast, namer))
            assert {k: ar.stats[k] for k in want} == want
