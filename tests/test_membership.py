"""Membership over (state, ψ-node) frontiers against the walk it replaces.

``membership`` must give the verdict of the old walk, which tried every
choice sequence of the automaton and compared the induced tree with ψ
position by position.  That walk is kept below as the reference.  Inputs
are kept small enough for it: it costs time exponential in the depth.
"""

from __future__ import annotations

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lstaq.amplitude import COMPLEX, POLY_ZERO
from lstaq.build import translate
from lstaq.cli import bench_sources
from lstaq.lsta import (
    Internal,
    Leaf,
    Lsta,
    StateVector,
    enumerate_language,
    membership,
    mk_lsta,
    permute_state,
)
from lstaq.oracle import denote
from lstaq.parser import parse
from tests.conftest import cpoly, vec
from tests.test_acceptance import random_source

FAMILIES = ("bv", "ghz", "grover", "groveriter", "mctoffoli")


# The reference keeps its own transition lookups, so it shares none with
# the code it checks.
def _by_top(a: Lsta):
    """Each state's internal and leaf transitions, as two lists by top."""
    internal: dict[int, list] = {}
    leaves: dict[int, list] = {}
    for t in a.internal:
        internal.setdefault(t.top, []).append(t)
    for t in a.leaves:
        leaves.setdefault(t.top, []).append(t)
    return internal, leaves


def _choice_index(transitions) -> dict[int, object]:
    """One state's transitions by choice."""
    out = {}
    for t in transitions:
        for c in t.choices:
            out[c] = t
    return out


def _reference_expand(m: tuple[int, ...], internal_by_top) -> set[tuple[int, ...]]:
    """Every state map one level below ``m``, one per usable choice."""
    tables = {}
    for q in set(m):
        trans = internal_by_top.get(q)
        if not trans:
            return set()
        tables[q] = _choice_index(trans)
    usable = set.intersection(*(set(t) for t in tables.values()))
    return {tuple(s for q in m for s in (tables[q][c].left, tables[q][c].right))
            for c in usable}


def reference_membership(a: Lsta, psi: StateVector) -> bool:
    """The old walk: depth first over choice sequences, ψ read per position."""
    internal_by_top, leaves_by_top = _by_top(a)
    want = psi.as_dict()

    def leaf_check(m: tuple[int, ...]) -> bool:
        tables = {}
        for q in set(m):
            trans = leaves_by_top.get(q)
            if not trans:
                return False
            tables[q] = _choice_index(trans)
        usable = set.intersection(*(set(t) for t in tables.values()))
        for c in usable:
            good = True
            for i, q in enumerate(m):
                v = tables[q][c].amplitude
                bits = format(i, f"0{psi.n}b")
                if a.semiring.is_zero(v):
                    if bits in want:
                        good = False
                        break
                elif want.get(bits) != v:
                    good = False
                    break
            if good:
                return True
        return False

    def walk(m: tuple[int, ...], depth: int) -> bool:
        if depth == psi.n:
            return leaf_check(m)
        return any(walk(nxt, depth + 1)
                   for nxt in _reference_expand(m, internal_by_top))

    return walk((a.root,), 0)


def perturbations(rng: random.Random, psi: StateVector):
    """One-bit and one-amplitude changes of ``psi`` at up to three of its
    entries, plus an explicit zero."""
    entries = dict(psi.entries)
    out = []
    for s in rng.sample(sorted(entries), min(3, len(entries))):
        j = rng.randrange(psi.n)
        t = s[:j] + ("1" if s[j] == "0" else "0") + s[j + 1:]
        if t not in entries:
            e = dict(entries)
            e[t] = e.pop(s)
            out.append(e)
        e = dict(entries)
        e[s] = -e[s]
        out.append(e)
        e = dict(entries)
        e[s] = e[s] + cpoly("1")
        out.append(e)
    absent = [format(i, f"0{psi.n}b") for i in range(2 ** psi.n)]
    absent = [s for s in absent if s not in entries]
    if absent:
        # A hand-built vector may list a position with a zero amplitude.
        out.append({**entries, rng.choice(absent): POLY_ZERO})
    return [StateVector(psi.n, tuple(sorted(e.items()))) for e in out]


def _translated(text: str):
    result = translate([parse(text)])
    return result, result.assertions[0].automaton


def _language(a: Lsta, n: int) -> list[StateVector]:
    return sorted(enumerate_language(a, n), key=str)


def _agree(a: Lsta, psi: StateVector, expected: bool) -> None:
    verdict = membership(a, psi)
    assert verdict == reference_membership(a, psi), str(psi)
    assert verdict == expected, str(psi)


def _agree_on_language(rng: random.Random, a: Lsta, n: int) -> None:
    """Every member, and the perturbations of up to three of them."""
    lang = _language(a, n)
    for psi in lang:
        _agree(a, psi, expected=True)
    for psi in rng.sample(lang, min(3, len(lang))):
        for cand in perturbations(rng, psi):
            _agree(a, cand, expected=cand in lang)
    zero = StateVector(n, ())
    _agree(a, zero, expected=zero in lang)


def test_verdicts_equal_the_reference_on_random_specs():
    rng = random.Random(0x3E3B)
    checked = 0
    while checked < 60:
        result, a = _translated(random_source(rng))
        if result.qubits <= 6:
            checked += 1
            _agree_on_language(rng, a, result.qubits)


def test_verdicts_equal_the_reference_on_the_families():
    rng = random.Random(0xFA11)
    for family in FAMILIES:
        for n in (2, 3, 4):
            for pre, post, _joint in bench_sources(family, n):
                for text in (pre, post):
                    result, a = _translated(text)
                    _agree_on_language(rng, a, result.qubits)


def test_explicit_zero_entries_keep_the_old_verdict(ref_automaton):
    member = StateVector.of(2, {"00": cpoly("1/sqrt2"), "01": cpoly("-1/sqrt2")},
                            COMPLEX)
    assert membership(ref_automaton, member)
    # The old walk never matches a listed position against a zero leaf, so
    # listing a zero amplitude makes the vector a non-member.
    padded = StateVector(2, member.entries + (("10", POLY_ZERO),))
    assert not membership(ref_automaton, padded)
    assert not reference_membership(ref_automaton, padded)


def test_a_state_without_a_choice_forbids_it():
    # Under root choice 1 the leaf frontier holds state 1, which allows
    # leaf choices 1 and 2, and state 2, which lacks choice 2; under root
    # choice 2 it holds state 4, which has no leaf transitions at all.
    one, two = frozenset({1}), frozenset({2})
    a = mk_lsta(
        COMPLEX,
        root=0,
        internal=[Internal(0, one, 1, 2), Internal(0, two, 3, 4), Internal(4, one, 4, 4)],
        leaves=[Leaf(1, one, cpoly("1")), Leaf(1, two, cpoly("i")),
                Leaf(2, one, cpoly("0")), Leaf(3, one, cpoly("2"))],
    )
    assert enumerate_language(a, 1) == {vec(1, {"0": "1"})}
    _agree(a, vec(1, {"0": "1"}), expected=True)
    _agree(a, vec(1, {"0": "i"}), expected=False)
    _agree(a, vec(1, {"0": "2"}), expected=False)


def test_bv_at_17_qubits_member_and_non_member():
    text = bench_sources("bv", 8)[0][1]
    result, a = _translated(text)
    assert result.qubits == 17
    members = {permute_state(s, result.permutation)
               for s in denote(parse(text), cap=result.qubits)}
    psi = min(members, key=str)
    assert membership(a, psi)
    rng = random.Random(17)
    cands = [c for c in perturbations(rng, psi) if c not in members]
    assert cands
    for cand in cands:
        assert not membership(a, cand)


# ---------------------------------------------------------------------------
# Properties over random specifications.
# ---------------------------------------------------------------------------


def _small_spec(seed: int):
    rng = random.Random(seed)
    while True:
        text = random_source(rng)
        result, a = _translated(text)
        if result.qubits <= 4:
            return rng, text, _language(a, result.qubits), a


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(min_value=0, max_value=2 ** 32))
def test_membership_is_language_membership(seed):
    rng, _text, lang, a = _small_spec(seed)
    for psi in lang:
        assert membership(a, psi)
        for cand in perturbations(rng, psi):
            assert membership(a, cand) == (cand in lang)
