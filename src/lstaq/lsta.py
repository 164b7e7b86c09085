"""Level-synchronized tree automata over a pluggable amplitude semiring.

An automaton accepts perfect binary trees of a fixed depth whose leaves carry
semiring values; such a tree is the standard decision-tree encoding of an
n-qubit state vector.  A run is driven by one choice number per level (plus
one for the leaf level): every node at a level resolves its transition with
the same choice, which is what keeps the branches synchronized.  Distinct
transitions from one state must carry disjoint choice sets, so a choice
sequence induces at most one tree.  States are bare integers, and leaf
values are combined only through the automaton's :class:`Semiring` record,
so every construction here works over all three leaf domains.

State ids are ``0..N-1``, the root is one of them, and every id is the top
of at least one transition: ``Lsta.states`` is ``range(N)``.
:func:`validate` enforces this id rule.  Every construction keeps it by
numbering the states it keeps in order, so a state that it drops or merges
takes no id.

A state's transitions of each kind are stored in ascending order of their
smallest choice.  Every construction keeps this order rule:
``build.build_setq_lsta`` gives every state but the root one transition and
the root choices 1..k in member order; :func:`union_all` gives its fresh
root choices 1..k in piece order; :func:`tensor_chain` writes interface
transitions in frontier-leaf order, then root order; and :func:`map_leaves`
keeps the order it is given.  :func:`write_lsta` relies on the rule: it
writes a state's transitions in the order they are stored.

The two composition operations mirror the set operations of the
specification language and take any number of operands: :func:`union_all`
adds one fresh root that selects between the operands' root transitions
(translation uses it for the alternatives of a segment; the members of one
set are written into their union directly, by ``build.build_setq_lsta``), and
:func:`tensor_chain` grafts each operand in turn, one scaled copy per
distinct leaf value of what came before.  The first operand's
interchangeable leaf states are merged before the first graft: the ids
below its first merged state keep their numbers, so only the ids from that
state up are numbered again, and only the transitions that reach them are
rebuilt.  Each graft plans its operand, so a copy is numbered in the plan's
local id order, and it merges a copy's interchangeable leaf states as the
copy is grafted; its peak is the largest intermediate size of a left fold
of binary tensors, counted before its merges.  A graft whose leaves have
its frontier's shape starts a run of one operand object: each further
merged graft of it finds that frontier again, shifted, so the whole run is
placed by integer arithmetic and written out in one pass, as shifted
copies of that graft, with leaf transitions only for the run's last graft.
Both cost time linear in the size of their result.
They assert their size bounds but do not :func:`validate` their results;
callers validate a finished automaton once.  Neither changes its operands,
so the same automaton object may be passed several times, as translation
does with recurring qubit slices; their operands must keep the id rule.
:func:`union` and :func:`tensor` are their two-operand forms.

:func:`validate` tests whole sets first: the set of tops against the ids,
the referenced states against the tops, and the (top, choice) pairs for
repeats.  When every choice set is a singleton, as in the automata that
translation builds, each transition is one such pair, and it tests the
(top, choice set) pairs instead, one per transition.  Only on a fault does
it scan, to name the first one in transition order, and then the first id
that breaks the id rule.  :func:`map_leaves`
calls its function once per distinct leaf value, so an amplitude-domain
crossing costs one call per value, however many leaves share it.

:func:`membership` decides one state without enumerating the language.  It
holds the state as a DAG of shared subtrees, in which every all-zero
subtree is one node, and walks the levels over frontiers of (state, node)
pairs.  Its cost is proportional to the distinct frontiers times the
levels, not to the choice sequences, which grow exponentially with depth.

:func:`enumerate_language` lists the whole language, at a cost that follows
the nonzero entries of the states it yields rather than their 2^n positions.
Once per call it finds the *zero-only* states, all of whose trees have only
zero leaves.  A run's frontier holds the tree positions of the other states,
in position order, and just the set of zero-only states present: these
still take part in choosing, since a state without a transition for a choice
forbids that choice, but their positions could only yield zero entries.  At
the leaf level each member is read straight off the live positions, which
are already in the sorted order of :class:`StateVector`'s entries.

Both walks read two choice indexes, internal and leaf, built once per call:
a state's row maps each choice to its transition, and a state without a row
allows no choice.

Transitions and :class:`StateVector` are ``NamedTuple`` records, like the
leaf values of ``amplitude``, and emitters build them with
``tuple.__new__``, so constructing, hashing and comparing one runs no
Python code.  Equality is by fields, whatever the class, so a state
vector's values are of its automaton's :class:`Semiring`, and no set or
memo mixes vectors of two domains.  Arithmetic and order that ``tuple``
would lend a ``StateVector`` raise ``TypeError``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, count
from operator import itemgetter
from typing import Collection, NamedTuple, Sequence

from .amplitude import COMPLEX, Semiring, undefined_operator
from .errors import (
    ChoiceOverlapError,
    DanglingStateError,
    EmptyStateError,
    InternalError,
    LimitExceededError,
)


class Internal(NamedTuple):
    top: int
    choices: frozenset[int]
    left: int
    right: int


class Leaf(NamedTuple):
    top: int
    choices: frozenset[int]
    amplitude: object


_TOP, _CHOICES, _LEFT, _RIGHT = map(itemgetter, range(4))
_AMPLITUDE = itemgetter(2)  # of a Leaf

# Emitters build records as ``tuple.__new__(Internal, (...))``: the same
# instances that ``Internal(...)`` makes, without NamedTuple's Python-level
# ``__new__``, which costs more than the tuple itself.


@dataclass(frozen=True)
class Lsta:
    semiring: Semiring
    states: Collection[int]
    root: int
    internal: tuple[Internal, ...]
    leaves: tuple[Leaf, ...]

    @property
    def size(self) -> int:
        """Number of transitions; the standard size measure."""
        return len(self.internal) + len(self.leaves)


def mk_lsta(
    semiring: Semiring,
    root: int,
    internal: list[Internal],
    leaves: list[Leaf],
) -> Lsta:
    """Assemble an automaton over any ids, deriving the state set from the
    transitions; it keeps the id rule only if the ids do."""
    states = {root}
    for t in internal:
        states.update((t.top, t.left, t.right))
    for t in leaves:
        states.add(t.top)
    return Lsta(semiring, frozenset(states), root, tuple(internal), tuple(leaves))


def validate(a: Lsta) -> None:
    """Check structural invariants and the id rule; raises on the first
    violation.

    Set-wide tests find whether the tops are other than ``0..N-1``, a state
    unknown, a choice set empty or a (top, choice) pair repeated; only then
    does the ordered scan run, to name the first violation in transition
    order, and then the first id missing from ``a.states`` or the tops.
    When every choice set is a singleton, the pairs are (top, choice set)
    pairs, one per transition.
    """
    transitions = (*a.internal, *a.leaves)
    n = len(a.states)
    tops = list(map(_TOP, transitions))
    choices = list(map(_CHOICES, transitions))
    if set(map(len, choices)) == {1}:
        distinct = len(set(zip(tops, choices))) == len(tops)
    else:
        pairs = [(top, c) for top, cs in zip(tops, choices) for c in cs]
        distinct = all(choices) and len(set(pairs)) == len(pairs)
    top_ids = set(tops)
    if (distinct and len(top_ids) == n and top_ids.issuperset(range(n))
            and (a.states == range(n) or top_ids.issuperset(a.states))
            and a.root in top_ids and top_ids.issuperset(map(_LEFT, a.internal))
            and top_ids.issuperset(map(_RIGHT, a.internal))):
        return
    if a.root not in a.states:
        raise DanglingStateError(a.root)
    seen: dict[int, set[int]] = {}
    for t in transitions:
        for s in (t.top, t.left, t.right) if isinstance(t, Internal) else (t.top,):
            if s not in a.states:
                raise DanglingStateError(s)
        if not t.choices:
            raise InternalError(f"transition from state {t.top} has no choices")
        pool = seen.setdefault(t.top, set())
        for c in t.choices:
            if c in pool:
                raise ChoiceOverlapError(t.top, c)
            pool.add(c)
    for s in range(n):
        if s not in a.states:
            raise DanglingStateError(s, "the state ids skip")
        if s not in top_ids:
            raise DanglingStateError(s, "no transition leaves state")


def n_leaves(a: Lsta) -> int:
    """Number of distinct leaf amplitude values."""
    return len({leaf.amplitude for leaf in a.leaves})


# ---------------------------------------------------------------------------
# State vectors (the denotation of one accepted tree).
# ---------------------------------------------------------------------------


class StateVector(NamedTuple):
    """An n-qubit state: basis bitstrings mapped to nonzero amplitudes."""

    n: int
    entries: tuple[tuple[str, object], ...]

    @classmethod
    def of(cls, n: int, amplitudes: dict[str, object], semiring: Semiring) -> "StateVector":
        items = tuple(
            sorted((s, v) for s, v in amplitudes.items() if not semiring.is_zero(v))
        )
        return tuple.__new__(cls, (n, items))

    __add__ = __mul__ = __rmul__ = __lt__ = __le__ = __gt__ = __ge__ = undefined_operator

    @property
    def is_zero(self) -> bool:
        return not self.entries

    def as_dict(self) -> dict[str, object]:
        return dict(self.entries)

    def __str__(self) -> str:
        if not self.entries:
            return "0"
        return " + ".join(f"({v})|{s}>" for s, v in self.entries)


def permute_state(psi: StateVector, new_to_old: tuple[int, ...]) -> StateVector:
    """Reindex qubits: position k of the result reads old position new_to_old[k-1]."""
    assert len(new_to_old) == psi.n
    entries = tuple(
        sorted(("".join(s[p - 1] for p in new_to_old), v) for s, v in psi.entries)
    )
    return tuple.__new__(StateVector, (psi.n, entries))


def substitute_state(psi: StateVector, theta: dict) -> StateVector:
    """Instantiate every amplitude polynomial under ``theta``; entries that
    vanish are dropped.  A name that ``theta`` leaves unbound raises
    :class:`UnboundComplexVarError`."""
    out = {s: v.substitute(theta) for s, v in psi.entries}
    return StateVector.of(psi.n, out, COMPLEX)


# ---------------------------------------------------------------------------
# Semantics: enumeration and membership.
# ---------------------------------------------------------------------------


def _choice_index(transitions) -> dict[int, dict[int, object]]:
    """Each top's transitions by choice: ``{top: {choice: transition}}``."""
    index: dict[int, dict[int, object]] = {}
    for t in transitions:
        row = index.setdefault(t.top, {})
        for c in t.choices:
            row[c] = t
    return index


def _common(index: dict[int, dict], states) -> set[int]:
    """The choices that all of ``states`` allow; a state without a row allows none."""
    rows = [index.get(q, ()) for q in states]
    return set(rows[0]).intersection(*rows[1:])


def _live_states(a: Lsta) -> set[int]:
    """The states some tree of which has a nonzero leaf.

    Every other state is *zero-only*: all its trees have only zero leaves,
    and all its children are zero-only too.  A worklist spreads liveness
    from the nonzero leaf transitions up to their ancestors, so the pass is
    linear in the transitions and does not recurse, whatever the depth.
    """
    is_zero = a.semiring.is_zero
    parents: dict[int, list[int]] = {}
    for t in a.internal:
        parents.setdefault(t.left, []).append(t.top)
        parents.setdefault(t.right, []).append(t.top)
    live = {t.top for t in a.leaves if not is_zero(t.amplitude)}
    work = list(live)
    while work:
        for p in parents.get(work.pop(), ()):
            if p not in live:
                live.add(p)
                work.append(p)
    return live


def enumerate_language(a: Lsta, n: int, limit: int = 100_000) -> frozenset[StateVector]:
    """All n-qubit states accepted by ``a``.

    A frontier is a tuple of (position, state) pairs for the live states,
    in position order, and a frozenset of the zero-only states present
    (see the module docstring); equal frontiers are walked once.

    Raises :class:`LimitExceededError`, whose message names the bound,
    when a level holds more than ``limit`` distinct frontiers, or more than
    ``limit`` live positions in all its distinct frontiers, or when the
    result holds more than ``limit`` states.
    """
    step, leaf = _choice_index(a.internal), _choice_index(a.leaves)
    live = _live_states(a)
    if a.root in live:
        frontiers = {(((0, a.root),), frozenset())}
    else:
        frontiers = {((), frozenset({a.root}))}
    for _ in range(n):
        nxt: set = set()
        held = 0  # live positions in the distinct frontiers of this level
        for positions, zeros in frontiers:
            for c in _common(step, {q for _p, q in positions}.union(zeros)):
                kids: list = []
                dead: set[int] = set()
                for p, q in positions:
                    t = step[q][c]
                    p *= 2
                    if t.left in live:
                        kids.append((p, t.left))
                    else:
                        dead.add(t.left)
                    if t.right in live:
                        kids.append((p + 1, t.right))
                    else:
                        dead.add(t.right)
                for q in zeros:
                    t = step[q][c]
                    dead.add(t.left)
                    dead.add(t.right)
                known = len(nxt)
                nxt.add((tuple(kids), frozenset(dead)))
                if len(nxt) > known:
                    held += len(kids)
                    if len(nxt) > limit:
                        raise LimitExceededError(limit, (
                            f"enumeration exceeded the limit of {limit} "
                            "distinct frontiers at one level"))
                    if held > limit:
                        raise LimitExceededError(limit, (
                            f"enumeration exceeded the limit of {limit} "
                            "live positions at one level"))
        frontiers = nxt
    is_zero = a.semiring.is_zero
    width = f"0{n}b"
    out: set[StateVector] = set()
    for positions, zeros in frontiers:
        # A state without leaf transitions leaves no choice common.
        keys = [(format(p, width), leaf.get(q)) for p, q in positions]
        for c in _common(leaf, {q for _p, q in positions}.union(zeros)):
            entries = []
            for s, row in keys:
                amplitude = row[c].amplitude
                if not is_zero(amplitude):
                    entries.append((s, amplitude))
            out.add(tuple.__new__(StateVector, (n, tuple(entries))))
            if len(out) > limit:
                raise LimitExceededError(limit, (
                    f"enumeration exceeded the limit of {limit} states in the language"))
    return frozenset(out)


def _psi_dag(psi: StateVector) -> tuple[int, list]:
    """``psi`` as a hash-consed DAG of subtrees: its root id and node table.

    Built bottom-up from the entries alone, in O(|entries|·n) dict steps.
    Node 0 stands for every all-zero subtree.  Any other node is a pair of
    child ids above the leaf level and an entry's amplitude at it; equal
    subtrees share one id.  An explicit entry, even a zero one, is never
    node 0.  Entries that are not n-bit strings name no position of the
    tree and are left out.
    """
    nodes: list = [(0, 0)]
    unique: dict = {}

    def node(kind: str, content) -> int:
        if (kind, content) not in unique:
            unique[kind, content] = len(nodes)
            nodes.append(content)
        return unique[kind, content]

    level = {s: node("leaf", v) for s, v in psi.as_dict().items()
             if len(s) == psi.n and not s.strip("01")}
    for _ in range(psi.n):
        pairs: dict[str, list[int]] = {}
        for s, k in level.items():
            pairs.setdefault(s[:-1], [0, 0])[int(s[-1])] = k
        level = {s: node("pair", (left, right)) for s, (left, right) in pairs.items()}
    return level.get("", 0), nodes


def membership(a: Lsta, psi: StateVector) -> bool:
    """Is ``psi`` in the language of ``a``?

    A level-by-level walk over frontiers: sets of (state, ψ-node) pairs,
    with ψ held as a DAG of shared subtrees (:func:`_psi_dag`).  Tree
    positions that share a pair take the same transitions under the same
    choice, so one pair stands for all of them, and each level keeps only
    its distinct frontiers.  The cost is proportional to the frontiers
    times the levels, never to the 2^n positions or to the choice
    sequences.  At the leaf level a choice accepts when every pair's leaf
    amplitude matches its node: node 0 matches any amplitude the semiring
    calls zero, an entry only its own amplitude, and never a zero one.
    """
    step, leaf = _choice_index(a.internal), _choice_index(a.leaves)
    root, nodes = _psi_dag(psi)

    frontiers = {frozenset({(a.root, root)})}
    for _ in range(psi.n):
        nxt = set()
        for f in frontiers:
            for c in _common(step, {q for q, _k in f}):
                pairs = set()
                for q, k in f:
                    t = step[q][c]
                    left, right = nodes[k]
                    pairs.add((t.left, left))
                    pairs.add((t.right, right))
                nxt.add(frozenset(pairs))
        frontiers = nxt

    is_zero = a.semiring.is_zero

    def fits(amplitude, k: int) -> bool:
        if k == 0:
            return is_zero(amplitude)
        return not is_zero(amplitude) and amplitude == nodes[k]

    return any(all(fits(leaf[q][c].amplitude, k) for q, k in f)
               for f in frontiers for c in _common(leaf, {q for q, _k in f}))


# ---------------------------------------------------------------------------
# Composition.
# ---------------------------------------------------------------------------


def union_all(pieces: Sequence[Lsta]) -> Lsta:
    """Language union: a fresh root re-emits every piece's root transitions.

    The pieces' states other than their roots are numbered in piece order,
    each piece's in its own order, and the fresh root takes the last id.
    Its transitions are the pieces' root transitions with singleton choices
    1..k in piece order, so the result has exactly as many transitions as
    the pieces together.  It serves unions of already built automata, such
    as a segment's alternatives; ``build.build_setq_lsta`` writes a set's
    members into the same union directly instead of building each one first.
    """
    if not pieces:
        raise InternalError("union of no automata")
    if len(pieces) == 1:
        return pieces[0]
    semiring = pieces[0].semiring
    internal: list[Internal] = []
    leaves: list[Leaf] = []
    old_roots: list[Internal] = []
    offset = 0
    new = tuple.__new__
    for p in pieces:
        if p.semiring != semiring:
            raise InternalError("cannot union automata over different semirings")
        if any(t.top == p.root for t in p.leaves):
            raise InternalError("a root state may not carry leaf transitions")
        # The root takes no id, so the ids above it move down by one.
        ids = [offset + s - (s > p.root) for s in range(len(p.states))]
        for top, c, left, right in p.internal:
            moved = new(Internal, (ids[top], c, ids[left], ids[right]))
            (old_roots if top == p.root else internal).append(moved)
        leaves += [new(Leaf, (ids[top], c, amplitude)) for top, c, amplitude in p.leaves]
        offset += len(p.states) - 1
    internal += [new(Internal, (offset, frozenset((idx,)), t.left, t.right))
                 for idx, t in enumerate(old_roots, start=1)]
    assert len(internal) + len(leaves) <= sum(p.size for p in pieces)
    return Lsta(semiring, range(offset + 1), offset, tuple(internal), tuple(leaves))


def union(a: Lsta, b: Lsta) -> Lsta:
    """Binary :func:`union_all`."""
    return union_all([a, b])


def _plan(b: Lsta) -> tuple:
    """How ``b`` is grafted, over local ids: its ids without the root's, so
    those above the root move down by one.  A copy numbers its states in
    local id order, each merged state taking none.

    Returns the number of local ids; the root transitions, their choices as
    indexes into the sorted root choices; the inner and the leaf
    transitions; the number of root choices; and the largest inner choice.
    """
    local = [s - (s > b.root) for s in range(len(b.states))]
    root_trans = [t for t in b.internal if t.top == b.root]
    if not root_trans:
        raise InternalError("right tensor operand has no root transitions")
    index = {c: i for i, c in enumerate(sorted({c for t in root_trans for c in t.choices}))}
    roots = [(tuple(index[c] for c in t.choices), local[t.left], local[t.right])
             for t in root_trans]
    inner = [(local[t.top], t.choices, local[t.left], local[t.right])
             for t in b.internal if t.top != b.root]
    leaves = [(local[t.top], t.choices, t.amplitude) for t in b.leaves]
    inner_max = max((c for _t, cs, _l, _r in inner for c in cs), default=0)
    return len(local) - 1, roots, inner, leaves, len(index), inner_max


def _signatures(leaves, inner_tops: set[int]) -> dict[int, frozenset]:
    """Each top of ``leaves``, (top, choices, amplitude) triples, that is not
    in ``inner_tops``, with the set of its (choices, amplitude) pairs."""
    sigs: dict[int, set] = {}
    for a, c, amplitude in leaves:
        if a not in inner_tops:
            sigs.setdefault(a, set()).add((c, amplitude))
    return {a: frozenset(sig) for a, sig in sigs.items()}


def _number(states: range, sigs: dict[int, frozenset], reps: dict[frozenset, int],
            start: int) -> tuple[list[int], set[int]]:
    """Ids for ``states``, in their order, and the states merged.  In order, a
    state whose signature is in ``reps`` is merged into that representative;
    any other takes the next id from ``start``, and its signature, if it has
    one, joins ``reps``."""
    ids: list[int] = []
    merged: set[int] = set()
    for a in states:
        sig = sigs.get(a)
        rep = start if sig is None else reps.setdefault(sig, start)
        if rep == start:
            start += 1
        else:
            merged.add(a)
        ids.append(rep)
    return ids, merged


def _merge_leaf_states(a: Lsta) -> tuple[int, list[Internal], list[Leaf], int]:
    """``a``'s root, transitions and number of ids once its interchangeable
    leaf-only states are merged: those with equal leaf transitions become
    the first of them, and the others take no id.

    The ids below the first merged state keep their numbers, so only the
    ids from it up are numbered again, and only the transitions that reach
    one of them are rebuilt, each in its place.
    """
    sigs = _signatures(a.leaves, {a.root, *map(_TOP, a.internal)})
    reps: dict[frozenset, int] = {}
    for first in sorted(sigs):
        if reps.setdefault(sigs[first], first) != first:
            break
    else:
        return a.root, list(a.internal), list(a.leaves), len(a.states)
    n = len(a.states)
    tail, merged = _number(range(first, n), sigs, reps, first)
    ids = [*range(first), *tail]
    new = tuple.__new__
    internal = list(a.internal)
    for k, (t, c, l, r) in enumerate(a.internal):
        if t >= first or l >= first or r >= first:
            internal[k] = new(Internal, (ids[t], c, ids[l], ids[r]))
    leaves = [new(Leaf, (ids[t], c, p)) for t, c, p in a.leaves if t not in merged]
    return ids[a.root], internal, leaves, n - len(merged)


class _Template(NamedTuple):
    """A graft relative to its first fresh id and choice and its frontier's
    first top.

    ``internal`` holds the graft's internal transitions in order, the
    copies' inner ones first: ``(False, top, choices, left, right)`` over
    ids, or, for an interface transition, ``(True, top, k, left, right)``
    with its top relative to the frontier and its choices the ``k``-th of
    ``sets``, whose choices are relative to the first fresh choice.  ``top``
    is the largest interface choice.
    """

    n_values: int
    n_ids: int
    internal: list[tuple[bool, int, object, int, int]]
    leaves: list[tuple[int, frozenset[int], object]]
    sets: list[tuple[int, ...]]
    top: int


def _emit(tpl: _Template, placements: list[tuple[int, int, int]],
          internal: list[Internal]) -> list[Leaf]:
    """Append ``tpl`` at each placement, a (first fresh id, first fresh
    choice, frontier's first top) triple, in order, each graft's inner
    transitions before its interface ones.  Returns the last placement's
    leaf transitions; the others' leaves are only the next placement's
    frontier, so they are not built."""
    sets = [frozenset(map(base.__add__, cs))
            for _off, base, _front in placements for cs in tpl.sets]
    new, n_sets = tuple.__new__, len(tpl.sets)
    internal += [new(Internal, (front + t, sets[g + c], off + l, off + r) if via
                     else (off + t, c, off + l, off + r))
                 for g, (off, _base, front) in zip(count(0, n_sets), placements)
                 for via, t, c, l, r in tpl.internal]
    off = placements[-1][0]
    return [new(Leaf, (off + a, c, p)) for a, c, p in tpl.leaves]


def _shape(leaves: list[tuple]) -> list[tuple]:
    """A frontier up to one offset of its tops: equal shapes graft alike."""
    return [(a - leaves[0][0], c, p) for a, c, p in leaves]


def tensor_chain(pieces: Sequence[Lsta]) -> tuple[Lsta, int]:
    """Tensor product of ``pieces`` in order, with its peak intermediate size.

    Each piece is grafted once onto a growing accumulator: one copy of it
    per distinct leaf value ``v`` of the accumulator, its leaf values
    pre-multiplied by ``v``.  Interface transitions inline the copies' root
    transitions under the accumulator's former leaf states; their choice
    sets come from an injection of (leaf choice, root choice) pairs into
    numbers above every internal choice used so far, which keeps choice
    sets disjoint.

    Leaf-only states with identical leaf transitions are interchangeable in
    every accepting tree, so they are merged into the smallest of them;
    this keeps the leaf transitions as many as the distinct leaf values,
    which is what the size bound counts.  The first piece's leaf states are
    merged before the first graft.  A copy's leaf states are merged as the
    copy is grafted, by the signature of their scaled leaf transitions: a
    merged state takes no id and emits no transitions, and the transitions
    into it point at its representative, the first state grafted with that
    signature.  The last graft is not merged.  The peak is the largest
    intermediate size of a left fold of binary tensors, which merges each
    accumulator before grafting onto it, counted before its merges.

    Each graft plans its piece, as transitions over local ids that a copy
    numbers in order, and computes the scaled leaf transitions and their
    signatures once per leaf value.  ``pieces`` are only read, so one
    automaton may appear in several positions.  Each product of a leaf value
    and a leaf amplitude is computed once per call, however often the pair
    recurs: ``products`` is the one table the call keeps.

    A graft is a :class:`_Template` written out by :func:`_emit` at a
    placement: its first fresh id, first fresh choice and frontier's first
    top.  A merged graft whose leaves have its frontier's shape (every top
    moved by one offset, equal choices and amplitudes, in order) starts a
    run: each further merged graft of the same piece object finds that
    frontier again, shifted, so its template places the whole run, up to
    but not including the unmerged last graft.  The placements are integer
    arithmetic.  The first fresh id moves by the template's ids; the
    frontier's first top is the previous placement plus the template's
    first leaf; and the largest choice is recomputed at each placement, not
    shifted, because the piece's inner choices may exceed the interface.
    One :func:`_emit` call then writes every placement, and builds leaf
    transitions only for the last, since the others' leaves are only the
    next graft's frontier.  The size bound is asserted for every graft.
    """
    if not pieces:
        raise InternalError("tensor product of no automata")
    acc = pieces[0]
    peak = acc.size
    if len(pieces) == 1:
        return acc, peak
    semiring = acc.semiring
    root, internal, leaves, next_id = _merge_leaf_states(acc)
    unmerged = len(acc.leaves)  # leaf transitions of the last graft before merging
    top_choice = max(chain.from_iterable(map(_CHOICES, internal)), default=0)
    products: dict = {}

    def product(v, amplitude):
        got = products.get((v, amplitude))
        if got is None:
            got = products[v, amplitude] = semiring.mul(v, amplitude)
        return got

    last = len(pieces) - 1
    step = 1
    while step <= last:
        b = pieces[step]
        if b.semiring != semiring:
            raise InternalError("cannot tensor automata over different semirings")
        n_states, roots, inner, b_leaves, width, inner_max = _plan(b)
        inner_tops = {t for t, _c, _l, _r in inner}
        values = {v: vi for vi, v in enumerate(dict.fromkeys(t.amplitude for t in leaves))}
        reps: dict[frozenset, int] = {}
        n_ids = 0
        moves, grafted, copy_roots, sets = [], [], [], []
        for v in values:
            scaled = [(a, c, product(v, amplitude)) for a, c, amplitude in b_leaves]
            sigs = _signatures(scaled, inner_tops) if step < last else {}
            ids, merged = _number(range(n_states), sigs, reps, n_ids)
            n_ids += n_states - len(merged)
            moves += [(False, ids[t], c, ids[l], ids[r]) for t, c, l, r in inner]
            grafted += [(ids[a], c, p) for a, c, p in scaled if a not in merged]
            copy_roots.append([(j, ids[l], ids[r]) for j, (_cs, l, r) in enumerate(roots)])
        front = leaves[0].top if leaves else 0
        ex_index = {c: i for i, c in enumerate(sorted({c for t in leaves for c in t.choices}))}
        set_index: dict[frozenset, int] = {}
        for lt in leaves:
            k = set_index.get(lt.choices)
            if k is None:
                k = set_index[lt.choices] = len(sets)
                starts = [ex_index[ca] * width for ca in lt.choices]
                sets += [tuple(s + i for s in starts for i in cs) for cs, _l, _r in roots]
            moves += [(True, lt.top - front, k + j, l, r)
                      for j, l, r in copy_roots[values[lt.amplitude]]]
        # Every frontier choice and every root choice index occurs.
        tpl = _Template(len(values), n_ids, moves, grafted, sets, len(ex_index) * width - 1)
        end = step + 1
        if end < last and pieces[end] is b and _shape(grafted) == _shape(leaves):
            # The graft's leaves are its frontier shifted, so each further
            # merged graft of b finds that frontier again: place the run now.
            while end < last and pieces[end] is b:
                end += 1
        first_leaf = tpl.leaves[0][0] if tpl.leaves else None
        n_new, grown = len(tpl.internal), tpl.n_values * len(b_leaves)
        bound = tpl.n_values * b.size
        n_internal = len(internal)
        placements = []
        for _ in range(step, end):
            base = top_choice + 1
            placements.append((next_id, base, front))
            if tpl.n_values:
                top_choice = max(top_choice, base + tpl.top, inner_max)
            size = n_internal + unmerged
            n_internal, unmerged = n_internal + n_new, grown
            assert n_internal + unmerged <= size + bound
            front = 0 if first_leaf is None else next_id + first_leaf
            next_id += tpl.n_ids
        # Sizes only grow along a run, so its last graft is its largest.
        peak = max(peak, n_internal + unmerged)
        leaves = _emit(tpl, placements, internal)
        step = end
    out = Lsta(semiring, range(next_id), root, tuple(internal), tuple(leaves))
    return out, peak


def tensor(a: Lsta, b: Lsta) -> Lsta:
    """Binary :func:`tensor_chain`, without the peak size."""
    return tensor_chain([a, b])[0]


def map_leaves(a: Lsta, fn, semiring: Semiring | None = None) -> Lsta:
    """Rewrite every leaf amplitude, optionally changing the semiring.

    ``fn`` must be a function of the value: it is called once per distinct
    leaf value, in first-occurrence order, and leaves with equal values get
    the same image.  Each leaf value is hashed once, to number the distinct
    values; the leaves then read their image by that number.
    """
    semiring = semiring or a.semiring
    number: dict[object, int] = {}
    slots = [number.setdefault(v, len(number)) for v in map(_AMPLITUDE, a.leaves)]
    images = list(map(fn, number))
    new = tuple.__new__
    leaves = tuple([new(Leaf, (top, c, images[k])) for (top, c, _v), k in zip(a.leaves, slots)])
    return Lsta(semiring, a.states, a.root, a.internal, leaves)


# ---------------------------------------------------------------------------
# Textual output format.
# ---------------------------------------------------------------------------


def write_lsta(a: Lsta, n: int, constraint: str | None = None) -> str:
    """Serialize to the versioned line format (deterministic bytes).

    Internal transitions, then leaf ones, each by ascending top; a state's
    transitions are written in the order they are stored (the order rule).
    """
    semiring = a.semiring
    sets = {cs: "{%d}" % min(cs) if len(cs) == 1 else "{%s}" % ",".join(map(str, sorted(cs)))
            for cs in set(map(_CHOICES, chain(a.internal, a.leaves)))}
    amplitudes = {v: semiring.render(v) for v in set(map(_AMPLITUDE, a.leaves))}
    names = frozenset().union(*map(semiring.variables, amplitudes))
    lines = [
        "lsta v1",
        f"semiring {semiring.name}",
        f"qubits {n}",
        "vars" + "".join(f" {v}" for v in sorted(names)),
        f"root {a.root}",
    ]
    lines += [f"i {top} {sets[cs]} -> {left} {right}"
              for top, cs, left, right in sorted(a.internal, key=_TOP)]
    lines += [f"l {top} {sets[cs]} -> {amplitudes[v]}"
              for top, cs, v in sorted(a.leaves, key=_TOP)]
    if constraint:
        lines.append(f"constraint {constraint}")
    return "\n".join(lines) + "\n"
