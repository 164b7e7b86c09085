"""``conftest.normalize``, the one form in which tests compare automata.

Two automata must normalize equal exactly when one is the other with its
states renamed, each state's transitions kept in order, and each level's
choices renumbered in order; and a malformed automaton must be refused,
naming the state, rather than walked forever.
"""

from __future__ import annotations

import dataclasses
import random
import re

import pytest

from lstaq.amplitude import COMPLEX, TAG, VALUATION, tag
from lstaq.build import build_state_lsta, translate
from lstaq.lsta import Internal, Leaf, Lsta, mk_lsta, tensor_chain, union_all, validate
from lstaq.parser import parse
from tests.conftest import cpoly, normalize, two_member_automaton
from tests.test_acceptance import _random_automaton, random_source
from tests.test_build import reference_valuation_automaton, third_case_state
from tests.test_lsta import _family_automata

ONE, TWO = frozenset({1}), frozenset({2})


def _heights(a: Lsta) -> dict[int, int]:
    height: dict[int, int] = {t.top: 0 for t in a.leaves}
    internal = list(a.internal)
    while internal:  # small automata: one pass per level
        ready = [t for t in internal if t.left in height and t.right in height]
        height.update((t.top, height[t.left] + 1) for t in ready)
        internal = [t for t in internal if t not in ready]
    return height


def _disguised(a: Lsta, rng: random.Random) -> Lsta:
    """``a`` with its ids shuffled and spread apart, its transitions
    interleaved anew but each state's kept in order, and each level's
    choices moved up by a gap of its own, in order."""
    tops = sorted({t.top for t in (*a.internal, *a.leaves)})
    ids = dict(zip(tops, rng.sample(range(3 * len(tops)), len(tops))))
    height = _heights(a)
    gap = {h: rng.randint(1, 5) for h in set(height.values())}

    def moved(t):
        cs = frozenset(c * gap[height[t.top]] + 7 for c in t.choices)
        if isinstance(t, Leaf):
            return Leaf(ids[t.top], cs, t.amplitude)
        return Internal(ids[t.top], cs, ids[t.left], ids[t.right])

    queues = {}
    for t in (*a.internal, *a.leaves):
        queues.setdefault(t.top, []).append(moved(t))
    shuffled = []
    while queues:
        top = rng.choice(list(queues))
        shuffled.append(queues[top].pop(0))
        if not queues[top]:
            del queues[top]
    return mk_lsta(a.semiring, ids[a.root], [t for t in shuffled if isinstance(t, Internal)],
                   [t for t in shuffled if isinstance(t, Leaf)])


def _corpus() -> list[Lsta]:
    rng = random.Random(0x40F)
    built = _family_automata()
    built += [ar.automaton for _ in range(60) for ar in
              translate([parse(random_source(rng))]).assertions]
    for _ in range(30):
        n = rng.randint(1, 3)
        pieces = [_random_automaton(rng, n) for _ in range(3)]
        built += [union_all(pieces), tensor_chain(pieces)[0]]
    return built + [two_member_automaton(), reference_valuation_automaton(),
                    build_state_lsta(third_case_state(), VALUATION)]


def test_a_disguised_automaton_normalizes_to_the_same_form():
    rng = random.Random(0x40E)
    corpus = _corpus()
    assert sum(a.size for a in corpus) > 10_000
    for a in corpus:
        form = normalize(a)
        validate(form)
        assert form.size == a.size
        assert normalize(form) == form
        for _ in range(2):
            assert normalize(_disguised(a, rng)) == form


def _with(a: Lsta, kind: str, index: int, t) -> Lsta:
    ts = list(getattr(a, kind))
    ts[index] = t
    return dataclasses.replace(a, **{kind: tuple(ts)})


def test_a_changed_order_or_amplitude_changes_the_form():
    rng = random.Random(0x40D)
    changed = 0
    for a in _corpus():
        form = normalize(a)
        # Two transitions of one state swap places: choices are disjoint,
        # so no renaming undoes it.
        for i, t in enumerate(a.internal):
            j = next((j for j, u in enumerate(a.internal) if j > i and u.top == t.top), None)
            if j is not None:
                b = _with(_with(a, "internal", i, a.internal[j]), "internal", j, t)
                assert normalize(b) != form
                changed += 1
                break
        # A leaf takes a value that no other leaf has.
        k = rng.randrange(len(a.leaves))
        fresh = a.semiring.add(a.leaves[k].amplitude, a.leaves[k].amplitude)
        if all(fresh != t.amplitude for t in a.leaves):
            assert normalize(_with(a, "leaves", k, a.leaves[k]._replace(amplitude=fresh))) != form
            changed += 1
    assert changed > 200


def test_sharing_is_part_of_the_form():
    # Both read the same trees; only the first shares its child.
    x, y = cpoly("1"), cpoly("1")
    shared = mk_lsta(COMPLEX, 0, [Internal(0, ONE, 1, 1)], [Leaf(1, ONE, x)])
    apart = mk_lsta(COMPLEX, 0, [Internal(0, ONE, 1, 2)], [Leaf(1, ONE, x), Leaf(2, ONE, y)])
    assert normalize(shared) != normalize(apart)
    assert normalize(apart) == normalize(mk_lsta(COMPLEX, 0, [Internal(0, ONE, 2, 1)],
                                                 [Leaf(1, ONE, x), Leaf(2, ONE, y)]))


def _with_unreached(order: tuple[int, int], u_children: list[tuple[int, int]]) -> Lsta:
    """A root over leaf states 1 and 2, alike, and states 3 and 4, which the
    root does not reach, over the given children, ids in ``order``."""
    internal = [Internal(0, ONE, 1, 2)]
    internal += [Internal(u, ONE, *kids) for u, kids in zip(order, u_children)]
    return mk_lsta(TAG, 0, internal, [Leaf(1, ONE, tag(1)), Leaf(2, ONE, tag(1))])


def test_unreached_states_are_ordered_by_what_their_walks_number():
    # Unreached 3 and 4 differ only in which reached state they name.
    form = normalize(_with_unreached((3, 4), [(1, 1), (2, 2)]))
    assert form == normalize(_with_unreached((4, 3), [(1, 1), (2, 2)]))
    assert form.internal[1:] == (Internal(3, ONE, 1, 1), Internal(4, ONE, 2, 2))
    assert form != normalize(_with_unreached((3, 4), [(1, 2), (2, 1)]))
    # The level-1 sink of the valuation automaton is unreached, and keeps
    # its choices ranked among its level's.
    assert normalize(reference_valuation_automaton()).size == 15


def test_equal_unreached_walks_order_either_way():
    # Two unreached copies of one subtree, over states of their own.
    def build(first: int, second: int) -> Lsta:
        return mk_lsta(TAG, 0, [Internal(0, ONE, 1, 1), Internal(first, ONE, 5, 6),
                                Internal(second, ONE, 7, 8)],
                       [Leaf(s, ONE, tag(1)) for s in (1, 5, 6, 7, 8)])
    assert normalize(build(3, 4)) == normalize(build(4, 3))


def _refused(internal, leaves, root=0) -> str:
    with pytest.raises(AssertionError) as err:
        normalize(mk_lsta(TAG, root, internal, leaves))
    return str(err.value)


def test_a_cycle_is_refused_naming_a_state_on_it():
    leaf = [Leaf(3, ONE, tag(1))]
    assert re.search("state [12] is on a cycle", _refused(
        [Internal(0, ONE, 1, 1), Internal(1, ONE, 2, 3), Internal(2, ONE, 1, 3)], leaf))
    assert "state 0 is on a cycle" in _refused([Internal(0, ONE, 0, 0)], [])
    # A cycle among states the root does not reach is found too.
    assert "state 4 is on a cycle" in _refused(
        [Internal(0, ONE, 3, 3), Internal(4, ONE, 5, 3), Internal(5, ONE, 4, 3)], leaf)


def test_a_dangling_child_is_refused_naming_it():
    assert "no transition leaves state 2" in _refused(
        [Internal(0, ONE, 1, 2)], [Leaf(1, ONE, tag(1))])
    assert "no transition leaves state 9" in _refused([], [Leaf(1, ONE, tag(1))], root=9)


def test_children_of_differing_heights_are_refused_naming_the_parent():
    assert "state 0 has children of differing heights" in _refused(
        [Internal(0, ONE, 1, 2), Internal(2, ONE, 1, 1)], [Leaf(1, ONE, tag(1))])
    # A state with both kinds of transition mixes heights 0 and 1.
    assert "state 2 has children of differing heights" in _refused(
        [Internal(0, ONE, 2, 2), Internal(2, ONE, 1, 1)],
        [Leaf(1, ONE, tag(1)), Leaf(2, TWO, tag(1))])


def test_a_state_two_unreached_walks_share_is_refused_naming_it():
    assert "state 5 is shared by two walks" in _refused(
        [Internal(0, ONE, 1, 1), Internal(3, ONE, 5, 1), Internal(4, ONE, 1, 5)],
        [Leaf(1, ONE, tag(1)), Leaf(5, ONE, tag(2))])


def test_normalize_is_linear_on_a_deep_chain():
    # 20,000 levels: a recursive walk would overflow the stack.
    depth = 20_000
    a = mk_lsta(TAG, 0, [Internal(k, ONE, k + 1, k + 1) for k in range(depth)],
                [Leaf(depth, ONE, tag(1))])
    assert normalize(a) == dataclasses.replace(a, states=range(depth + 1))
