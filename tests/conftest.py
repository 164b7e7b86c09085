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


def assert_same_lines(got: str, want: str) -> None:
    """Fail naming the first line where two texts differ.  A plain ``==``
    on two long texts makes pytest diff them, which can take minutes."""
    got_lines, want_lines = got.split("\n"), want.split("\n")
    if got_lines != want_lines:
        at = next((k for k, (x, y) in enumerate(zip(got_lines, want_lines)) if x != y),
                  min(len(got_lines), len(want_lines)))
        pytest.fail(f"line {at}: {got_lines[at:at + 1]} != {want_lines[at:at + 1]}, "
                    f"{len(got_lines)} and {len(want_lines)} lines")


@pytest.fixture
def ref_automaton() -> Lsta:
    return two_member_automaton()


def normalize(a: Lsta) -> Lsta:
    """``a`` in normal form: two automata normalize equal exactly when one
    is the other with its states renamed, each state's transitions kept in
    order, and each level's choices renumbered in order.

    Ids go breadth-first from the root, transitions in stored order, left
    child first; then, in the order of what they number, the same walks
    from the unreached states that no other reaches.  A level is a height;
    its choices are numbered from 1.  Raises ``AssertionError`` naming the
    state on a cycle, a dangling child, children of differing heights, or
    a state two unreached walks share, which no linear pass can order.
    """
    out: dict[int, list] = {}
    for t in (*a.internal, *a.leaves):
        out.setdefault(t.top, []).append(t)
    kids = {q: [c for t in ts if isinstance(t, Internal) for c in t[2:]] for q, ts in out.items()}

    height: dict[int, int] = {}
    path: set[int] = set()  # the states the depth-first walk is inside
    stack = [*out, a.root]
    while stack:
        q = stack.pop()
        if q in height:
            continue
        assert q in out, f"no transition leaves state {q}"
        todo = [c for c in kids[q] if c not in height]
        if todo:
            path.add(q)
            assert not path.intersection(todo), f"state {q} is on a cycle"
            stack += [q, *todo]
            continue
        hs = {height[c] + 1 for c in kids[q]} | {0 for t in out[q] if isinstance(t, Leaf)}
        assert len(hs) == 1, f"state {q} has children of differing heights"
        height[q] = hs.pop()
        path.discard(q)

    levels: dict[int, set[int]] = {}
    for q, ts in out.items():
        levels.setdefault(height[q], set()).update(*(t.choices for t in ts))
    rank = {h: {c: k for k, c in enumerate(sorted(cs), 1)} for h, cs in levels.items()}

    def renamed(q: int, name) -> list:
        """``q``'s transitions, its states renamed by ``name``, choices ranked."""
        rk = rank[height[q]]
        return [Leaf(name(q), frozenset(rk[c] for c in t.choices), t.amplitude)
                if isinstance(t, Leaf) else
                Internal(name(q), frozenset(rk[c] for c in t.choices), name(t.left), name(t.right))
                for t in out[q]]

    def walk(start: int) -> list[int]:
        order, seen = [start], {start}
        for q in order:
            new = [c for c in dict.fromkeys(kids[q]) if c not in ids and c not in seen]
            seen.update(new)
            order += new
        return order

    ids: dict[int, int] = {}
    ids.update((q, k) for k, q in enumerate(walk(a.root)))
    rest = [q for q in out if q not in ids]
    reached = {c for q in rest for c in kids[q]}
    walks = []
    for order in (walk(q) for q in rest if q not in reached):
        local = {q: ~k for k, q in enumerate(order)}  # negative, apart from ids
        walks.append(([(isinstance(t, Leaf), t.top, sorted(t.choices),
                        a.semiring.render(t.amplitude) if isinstance(t, Leaf) else t[2:])
                       for q in order for t in renamed(q, lambda c: ids.get(c, local.get(c)))],
                      order))
    for q in (q for _key, order in sorted(walks, key=lambda w: w[0]) for q in order):
        assert q not in ids, f"state {q} is shared by two walks from unreached states"
        ids[q] = len(ids)
    ts = [t for q in ids for t in renamed(q, ids.__getitem__)]
    return Lsta(a.semiring, range(len(ids)), 0, *(tuple(t for t in ts if isinstance(t, kind))
                                                  for kind in (Internal, Leaf)))
