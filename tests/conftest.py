"""Shared fixtures: reference automata and comparison helpers."""

from __future__ import annotations

import pytest

from lstaq.amplitude import COMPLEX, AmplitudePoly
from lstaq.lsta import Internal, Leaf, Lsta, StateVector, mk_lsta
from lstaq.parser import parse_constant


def cpoly(text: str) -> AmplitudePoly:
    """A constant amplitude polynomial from surface syntax."""
    return AmplitudePoly.const(parse_constant(text))


def vec(n: int, amplitudes: dict[str, str]) -> StateVector:
    """An n-qubit state with amplitudes written in surface syntax."""
    return StateVector.of(n, {s: cpoly(a) for s, a in amplitudes.items()}, COMPLEX)


def two_member_automaton() -> Lsta:
    """A 2-qubit automaton with a two-state language, built by hand.

    Choice 1 yields (1/sqrt2)|00> - (1/sqrt2)|01>, choice 2 yields
    (i/sqrt2)|10> - (i/sqrt2)|11>; the shared middle state contributes the
    zero halves of both members.  10 transitions over 9 states.
    """
    one = frozenset({1})
    return mk_lsta(
        COMPLEX,
        root=0,
        internal=[
            Internal(0, one, 1, 2),
            Internal(0, frozenset({2}), 2, 3),
            Internal(1, one, 4, 5),
            Internal(2, one, 6, 6),
            Internal(3, one, 7, 8),
        ],
        leaves=[
            Leaf(4, one, cpoly("1/sqrt2")),
            Leaf(5, one, cpoly("-1/sqrt2")),
            Leaf(6, one, cpoly("0")),
            Leaf(7, one, cpoly("i/sqrt2")),
            Leaf(8, one, cpoly("-i/sqrt2")),
        ],
    )


@pytest.fixture
def ref_automaton() -> Lsta:
    return two_member_automaton()


def canonical_form(a: Lsta):
    """A renaming-invariant description: root signature + transition multiset.

    Signatures expand states structurally (automata here are acyclic), so
    two automata with equal forms are equal up to state renaming.
    """
    by_top: dict[int, list] = {}
    for t in list(a.internal) + list(a.leaves):
        by_top.setdefault(t.top, []).append(t)

    memo: dict[int, tuple] = {}

    def sig(q: int) -> tuple:
        if q in memo:
            return memo[q]
        parts = []
        for t in by_top.get(q, []):
            if isinstance(t, Internal):
                parts.append(("i", tuple(sorted(t.choices)), sig(t.left), sig(t.right)))
            else:
                parts.append(("l", tuple(sorted(t.choices)), a.semiring.render(t.amplitude)))
        memo[q] = tuple(sorted(parts))
        return memo[q]

    transitions = []
    for t in a.internal:
        transitions.append((sig(t.top), tuple(sorted(t.choices)), "i", sig(t.left), sig(t.right)))
    for t in a.leaves:
        transitions.append((sig(t.top), tuple(sorted(t.choices)), "l", a.semiring.render(t.amplitude)))
    return sig(a.root), tuple(sorted(transitions))
