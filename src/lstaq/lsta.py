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
of at least one transition.  ``Lsta.states`` is ``range(N)`` by
construction; :func:`validate` enforces the rest of this id rule.  Every
construction keeps it by numbering the states it keeps in order, so a
state that it drops or merges takes no id.

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
rebuilt.  A call plans each distinct operand object once, and scales its
leaves once per distinct leaf value it is grafted onto.  A graft lays its
copies out one after another in the plan's local id order and, unless it
is the last, then merges the copies' interchangeable leaf states, so the
states it keeps are numbered in that order; its peak is the largest
intermediate size of a left fold of binary tensors, counted before its
merges.  A graft whose leaves have its frontier's shape starts a run of
one operand object: each further merged graft of it finds that frontier
again, shifted, so the whole run is placed by integer arithmetic, as
shifted copies of that graft, with leaf transitions only for the run's
last graft, whose set-up the unmerged last graft of the same operand
reuses.  Outside runs, both cost time linear in the size of their result.
They assert their size bounds but do not :func:`validate` their results;
callers validate a finished automaton once.  Neither changes its operands,
so the same automaton object may be passed several times, as translation
does with recurring qubit slices; their operands must keep the id rule.
:func:`union` and :func:`tensor` are their two-operand forms.

**Run blocks.**  :func:`tensor_chain` keeps each run as the windows of its
grafts, one block of the automaton it returns: a :class:`_Run`, the
grafts' template, the first graft's first fresh id, the second graft's
first fresh choice, and the number of windows, one per graft but the last.
Window ``i`` is graft ``i``'s ids: its inner transitions and graft
``i+1``'s interface ones, which graft onto graft ``i``'s leaf states.  The
first graft's interface transitions, on the frontier the run grafts onto,
and the last graft's inner ones, whose leaf states the next graft
continues from, are records before and after the block, so every block
holds at least one window.  Such a *run-bearing* automaton stores its
internal transitions as blocks that alternate records and runs
(``Lsta._blocks``); its leaves are records, as a run has leaves only at its
last graft, and the unmerged last graft and everything that does not
repeat are records too.  An explicit automaton, built as ``Lsta(...)``,
holds plain tuples.  Blocks are read directly by
:func:`tensor_chain`, :func:`union_all`, :func:`map_leaves`,
:func:`validate`, :func:`write_lsta` and ``Lsta.size``; so composition and
validation of a run cost the same however long it is.
:func:`tensor_chain` keeps a first operand's runs and reads only its
records; a right operand's runs, and :func:`union_all`'s pieces', are kept
moved by each copy's offset (:func:`_runs_of`).  Every other reader (the
oracle, :func:`membership`, :func:`enumerate_language`, the tests) reads
``a.internal``, which a run-bearing automaton builds on its first read, in
stored order: record blocks as they are, a run window by window, each
window's inner transitions before its interface ones; a state's
transitions all lie in one of these, so each keeps the order rule's order.
That accessor is the one place outside :func:`write_lsta` that expands a
run.  ``dataclasses.replace`` builds an explicit automaton.

:func:`write_lsta` writes text a block at a time, never a line at a time:
each block of records, the leaves and each run's windows are one ``%``
format of a line's fields, repeated over the block and applied to one
tuple of the block's fields, formatted in slices of at most ``_SLICE``
arguments so the tuple stays bounded.  A run's arguments are its windows'
ids and interface choices, arithmetic progressions along the run, so they
are assigned a column at a time from ranges (:func:`_run_lines`).  Only
choice-set texts that :func:`_set_text` makes, and a run's interface sets
as ``{%d,...}``, may enter a format string;
amplitude renders, variable names and the public ``constraint`` argument
never do.  The writer reads the blocks as they are stored and tests no
choice rule (:func:`_in_order`): it needs only the runs' windows in
ascending order, each template's tops inside its window and no record's
top inside a window, so that the text sorts by top; otherwise it writes
the records.  Neither it nor :func:`validate` keeps anything on the
instance.

:func:`validate` runs one set-wide test, :func:`_holds`, over the records,
the leaves and each run's first window: their tops must be exactly the ids
outside the runs' later windows, the children and the root ids, and no
(top, choice) pair may repeat.  When the root is the
only top with more than one transition, as in every
``build.build_setq_lsta`` result and every :func:`union_all` of such
pieces, a pair can repeat only at the root, so only the root's choice sets
are tested for overlap, and every set for being nonempty; this is exact.
Otherwise the pairs are tested over all transitions; with singleton choice
sets only, as translation builds them, one (top, choice set) pair per
transition.  Only on a fault does it scan, to name the first one in
transition order, and then the first id that no transition leaves.  A
run's first window stands for all its windows: a later one is the first
moved by a number of ids, with only its interface choices moved too, so
when the template's inner and interface tops are apart and tile the
window, every window keeps the choice rules exactly when the first does.
Its children are tested in the first window and moved to the last, and
no record's top lies in a later window.  Only if that test fails are a
run-bearing automaton's records built, so a fault is named as in the
explicit automaton.  :func:`map_leaves` calls its function once per
distinct leaf value, so an amplitude-domain crossing costs one call per
value, however many leaves share it.

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

from bisect import bisect_left
from collections import namedtuple
from dataclasses import dataclass
from functools import partial
from itertools import chain, compress, islice, repeat, takewhile
from operator import eq, is_, itemgetter
from typing import NamedTuple, Sequence

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
    states: range
    root: int
    internal: tuple[Internal, ...]
    leaves: tuple[Leaf, ...]

    # A run-bearing automaton's internal transitions as blocks (see the
    # module docstring); ``None`` for an explicit one.
    _blocks = None

    @property
    def size(self) -> int:
        """Number of transitions; the standard size measure."""
        if self._blocks is None:
            return len(self.internal) + len(self.leaves)
        return _count(self._blocks) + len(self.leaves)


class _Records:
    """``Lsta.internal`` where the instance holds none, as a run-bearing
    automaton does: its first read builds the records from the blocks and
    stores them on the instance, which later reads find first.  Being a
    non-data descriptor, it leaves attribute lookup on ``Lsta`` generic."""

    def __get__(self, a, owner=None):
        if a is None:
            return self
        internal = a.__dict__["internal"] = _materialize(a._blocks)
        return internal


Lsta.internal = _Records()  # set after the dataclass is made: not a field default


def _with_blocks(semiring: Semiring, states: range, root: int,
                 blocks: tuple, leaves: tuple[Leaf, ...]) -> Lsta:
    """A run-bearing automaton: ``internal`` is built from ``blocks`` on
    its first read."""
    a = object.__new__(Lsta)
    a.__dict__.update(semiring=semiring, states=states, root=root, leaves=leaves,
                      _blocks=blocks)
    return a


def mk_lsta(
    semiring: Semiring,
    root: int,
    internal: list[Internal],
    leaves: list[Leaf],
) -> Lsta:
    """Assemble an automaton over the ids ``0..`` the largest id its root
    and transitions name; :func:`validate` names an id that no transition
    leaves."""
    ids = chain((root,), *((t.top, t.left, t.right) for t in internal), map(_TOP, leaves))
    return Lsta(semiring, range(max(ids) + 1), root, tuple(internal), tuple(leaves))


def _distinct(tops: list[int], choices: list) -> bool:
    """Whether every choice set is nonempty and no (top, choice) pair
    repeats, over transitions given as their tops and choice sets.  When
    every choice set is a singleton, the pairs are (top, choice set) pairs,
    one per transition."""
    if set(map(len, choices)) == {1}:
        return len(set(zip(tops, choices))) == len(tops)
    pairs = [(top, c) for top, cs in zip(tops, choices) for c in cs]
    return all(choices) and len(set(pairs)) == len(pairs)


def _holds(a: Lsta) -> bool:
    """Whether ``a`` keeps every rule :func:`validate` checks, tested over
    whole sets: its records, its leaves and each run's first window, placed
    as :func:`_materialize` places it.  Their tops must be exactly the ids
    outside the runs' later windows: every id, for an explicit ``a``.

    Window ``i`` is the first moved by ``i * n_ids`` ids, and only its
    interface choices move with it.  So the first window stands for them
    all when the runs' windows are in ascending order inside the ids, and
    its inner tops and interface tops are apart and tile it: each later
    window then tiles its ids and keeps the choice rules exactly where the
    first does.  A child is tested for being an id in the first window, and
    again moved to the last; in an explicit ``a``, whose tops are then every
    id, for being a top.

    When only the root has several transitions, which a count of the tops
    shows, every other top has a single choice set, and a frozenset holds
    no choice twice: a (top, choice) pair can then repeat only at the root.
    So only the root's sets are tested, for being pairwise disjoint (their
    union is as large as their sizes summed), and every set for being
    nonempty; this accepts exactly what :func:`_distinct` accepts, without
    hashing a pair per transition."""
    n = len(a.states)
    blocks = a._blocks
    lasts: list[int] = []  # each run's largest child, moved to its last window
    if blocks is None:
        records, outside = a.internal, range(n)
    else:
        records, outside, prev = list(chain.from_iterable(blocks[::2])), [], 0
        for tpl, lo, base, k in blocks[1::2]:
            step = tpl.n_ids
            hi = lo + k * step
            if lo < prev or hi > n or not (tpl.leaves and (tpl.inner or tpl.faces)):
                return False
            inner = _inner_at(tpl.inner, lo)
            faces = _faces_at(tpl, lo + step, base, lo + tpl.leaves[0][0])
            inner_tops, face_tops = set(map(_TOP, inner)), set(map(_TOP, faces))
            if (len(inner_tops) + len(face_tops) != step
                    or inner_tops.union(face_tops) != set(range(lo, lo + step))):
                return False
            window = inner + faces
            records += window
            lasts.append(max(chain(map(_LEFT, window), map(_RIGHT, window))) + (k - 1) * step)
            outside += range(prev, lo + step)
            prev = hi
        outside += range(prev, n)
    transitions = (*records, *a.leaves)
    tops = list(map(_TOP, transitions))
    choices = list(map(_CHOICES, transitions))
    top_ids = set(tops)
    root = a.root
    if tops.count(root) == len(tops) - len(top_ids) + 1:
        # Only the root has several transitions, so only its choice sets
        # can share a choice: they must be pairwise disjoint.
        root_sets = list(compress(choices, map(eq, tops, repeat(root))))
        distinct = all(choices) and (
            len(frozenset().union(*root_sets)) == sum(map(len, root_sets)))
    else:
        distinct = _distinct(tops, choices)
    if not (distinct and 0 <= root < n
            and len(top_ids) == len(outside) and top_ids.issuperset(outside)):
        return False
    if blocks is None:
        # The tops are every id, so a child is an id when it is a top.
        return (top_ids.issuperset(map(_LEFT, records))
                and top_ids.issuperset(map(_RIGHT, records)))
    kids = [*map(_LEFT, records), *map(_RIGHT, records), *lasts]
    return not kids or (0 <= min(kids) and max(kids) < n)


def validate(a: Lsta) -> None:
    """Check structural invariants and the id rule; raises on the first
    violation.

    A state set other than ``range(N)``, which only a hand-built ``Lsta``
    has, must still hold every id below its length.  Then :func:`_holds`
    tests whole sets, a run through its first window; only on a fault are
    the records scanned, to name the first violation in transition order,
    and then the first id that no transition leaves.
    """
    n = len(a.states)
    if a.states != range(n):
        for k in range(n):
            if k not in a.states:
                raise DanglingStateError(k, "the state ids skip")
    if _holds(a):
        return
    if not 0 <= a.root < n:
        raise DanglingStateError(a.root)
    seen: dict[int, set[int]] = {}
    for t in (*a.internal, *a.leaves):
        for s in (t.top, t.left, t.right) if isinstance(t, Internal) else (t.top,):
            if not 0 <= s < n:
                raise DanglingStateError(s)
        if not t.choices:
            raise InternalError(f"transition from state {t.top} has no choices")
        pool = seen.setdefault(t.top, set())
        for c in t.choices:
            if c in pool:
                raise ChoiceOverlapError(t.top, c)
            pool.add(c)
    for s in range(n):
        if s not in seen:
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
    """Reindex qubits: position k of the result reads old position new_to_old[k-1].

    The identity returns ``psi`` itself, whose entries are sorted already.
    """
    assert len(new_to_old) == psi.n
    if new_to_old == tuple(range(1, psi.n + 1)):
        return psi
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
    A piece's runs (:func:`_runs_of`) are kept, moved by the piece's offset.
    """
    if not pieces:
        raise InternalError("union of no automata")
    if len(pieces) == 1:
        return pieces[0]
    semiring = pieces[0].semiring
    blocks: list = [[]]
    leaves: list[Leaf] = []
    old_roots: list[Internal] = []
    offset = 0
    new = tuple.__new__
    for p in pieces:
        if p.semiring != semiring:
            raise InternalError("cannot union automata over different semirings")
        if any(t.top == p.root for t in p.leaves):
            raise InternalError("a root state may not carry leaf transitions")
        root, n = p.root, len(p.states)
        # The root takes no id, so the ids above it move down by one.
        ids = [*range(offset, offset + root + 1), *range(offset + root, offset + n - 1)]
        for block in _runs_of(p, below_leaves=False):
            if type(block) is _Run:
                blocks += [_shift(block, offset - 1), []]
                continue
            internal = blocks[-1]
            for top, c, left, right in block:
                moved = new(Internal, (ids[top], c, ids[left], ids[right]))
                (old_roots if top == root else internal).append(moved)
        leaves += [new(Leaf, (ids[top], c, amplitude)) for top, c, amplitude in p.leaves]
        offset += n - 1
    blocks[-1] += [new(Internal, (offset, frozenset((idx,)), t.left, t.right))
                   for idx, t in enumerate(old_roots, start=1)]
    assert _count(blocks) + len(leaves) <= sum(p.size for p in pieces)
    return _assemble(semiring, offset + 1, offset, blocks, leaves)


def union(a: Lsta, b: Lsta) -> Lsta:
    """Binary :func:`union_all`."""
    return union_all([a, b])


# How a piece is grafted, over local ids (:func:`_plan`).
_Plan = namedtuple("_Plan", "n_ids roots inner leaves width inner_max runs amplitudes slots size")


def _plan(b: Lsta) -> _Plan:
    """How ``b`` is grafted, over local ids: its ids without the root's, so
    those above the root move down by one, and a copy numbers its states in
    local id order.

    Returns the number of local ids; the root transitions, their choices as
    indexes into the sorted root choices; the inner and the leaf
    transitions; the number of root choices; the largest inner choice;
    ``b``'s runs (:func:`_runs_of`), each with the index of the inner
    transition it goes before; the distinct leaf amplitudes and each leaf's
    index among them, so a copy scales each once; and ``b``'s size.  A run's
    ids are above the root and below every leaf state, so a copy moves them
    by one offset (:func:`_shift`).
    """
    root = b.root
    root_trans: list[Internal] = []
    inner: list[tuple] = []
    runs: list[tuple[int, _Run]] = []
    for block in _runs_of(b):
        if type(block) is _Run:
            runs.append((len(inner), block))
            continue
        root_trans += [t for t in block if t.top == root]
        inner += [(t - (t > root), c, l - (l > root), r - (r > root))
                  for t, c, l, r in block if t != root]
    if not root_trans:
        raise InternalError("right tensor operand has no root transitions")
    index = {c: i for i, c in enumerate(sorted({c for t in root_trans for c in t.choices}))}
    roots = [(tuple(index[c] for c in cs), l - (l > root), r - (r > root))
             for _t, cs, l, r in root_trans]
    leaves = [(t - (t > root), c, amplitude) for t, c, amplitude in b.leaves]
    inner_max = max(chain((c for _t, cs, _l, _r in inner for c in cs),
                          (run.top for _at, run in runs)), default=0)
    numbers: dict = {}
    slots = [numbers.setdefault(p, len(numbers)) for _t, _c, p in leaves]
    return _Plan(len(b.states) - 1, roots, inner, leaves, len(index), inner_max, runs,
                 list(numbers), slots, b.size)


def _leaf_states(plan: _Plan) -> tuple:
    """What a merged graft of ``plan`` reads to number a copy's states: its
    leaf-only states, ascending, each with its leaves' indexes; and, for a
    piece with runs, the only ids a copy numbers one by one (``None`` for
    all): those named outside the runs."""
    inner_tops = set(map(_TOP, plan.inner))
    picks: dict[int, list[int]] = {}
    for i, a in enumerate(map(_TOP, plan.leaves)):
        if a not in inner_tops:
            picks.setdefault(a, []).append(i)
    order = sorted(picks)
    named = None
    if plan.runs:
        named = {x for t, _c, l, r in plan.inner for x in (t, l, r)}
        named.update(*((l, r) for _cs, l, r in plan.roots), map(_TOP, plan.leaves))
    return order, [picks[a] for a in order], named


def _signatures(leaves, inner_tops: set[int]) -> dict[int, frozenset]:
    """Each top of ``leaves``, (top, choices, amplitude) triples, that is not
    in ``inner_tops``, with the set of its (choices, amplitude) pairs."""
    sigs: dict[int, set] = {}
    for a, c, amplitude in leaves:
        if a not in inner_tops:
            sigs.setdefault(a, set()).add((c, amplitude))
    return {a: frozenset(sig) for a, sig in sigs.items()}


def _number(states: range, order: list[int], sigs: list, named=None) -> tuple:
    """Ids for ``states``, from their first, once interchangeable states are
    merged, and the states merged, each with its representative's id.
    ``order`` lists the states with a signature, ascending, and ``sigs``
    their signatures.  In order, a state whose signature an earlier state
    has is merged into that state, and takes no id; any other takes the
    next id.  The ids are indexed from ``states.start``: ``states`` itself
    when no state merges; otherwise a list, or with ``named`` a dict of
    those states' only."""
    reps: dict = {}
    merged: dict[int, int] = {}
    for a, sig in zip(order, sigs):
        top = a - len(merged)
        rep = reps.setdefault(sig, top)
        if rep != top:
            merged[a] = rep
    if not merged:
        return states, merged
    if named is not None:
        cuts = list(merged)
        return {a: merged[a] if a in merged else a - bisect_left(cuts, a)
                for a in named}, merged
    ids: list[int] = []
    prev = states.start
    for m, (a, rep) in enumerate(merged.items()):
        ids += range(prev - m, a - m)
        ids.append(rep)
        prev = a + 1
    ids += range(prev - len(merged), states.stop - len(merged))
    return ids, merged


def _merge_leaf_states(a: Lsta, internal=None) -> tuple[int, list[Internal], list[Leaf], int]:
    """``a``'s root, transitions and number of ids once its interchangeable
    leaf-only states are merged: those with equal leaf transitions become
    the first of them, and the others take no id.

    The ids below the first leaf-only state keep their numbers, so only
    the ids from it up are numbered again, and only the transitions that
    reach a merged state or one above it are rebuilt, each in its place.
    ``internal`` are the transitions to read and rebuild, by default all of
    ``a``'s; :func:`tensor_chain` passes only those after ``a``'s last run,
    whose ids are all below every leaf state (:func:`_runs_of`).
    """
    if internal is None:
        internal = a.internal
    n = len(a.states)
    sigs = _signatures(a.leaves, {a.root, *map(_TOP, internal)})
    order = sorted(sigs)
    lo = order[0] if order else n
    ids, merged = _number(range(lo, n), order, [sigs[s] for s in order])
    if not merged:
        return a.root, list(internal), list(a.leaves), n
    first = next(iter(merged))
    ids = ids.__getitem__  # the new id of s >= lo is ids(s - lo)
    new = tuple.__new__
    internal = list(internal)
    for k, (t, c, l, r) in enumerate(internal):
        if t >= first or l >= first or r >= first:
            internal[k] = new(Internal, (t if t < first else ids(t - lo), c,
                                         l if l < first else ids(l - lo),
                                         r if r < first else ids(r - lo)))
    leaves = [new(Leaf, (t if t < first else ids(t - lo), c, p))
              for t, c, p in a.leaves if t not in merged]
    root = a.root if a.root < first else ids(a.root - lo)
    return root, internal, leaves, n - len(merged)


class _Template(NamedTuple):
    """A graft relative to its first fresh id and choice and its frontier's
    first top.

    ``inner`` holds the copies' inner transitions in order, ``(top,
    choices, left, right)`` over ids, and ``faces`` the interface ones in
    order, ``(top, k, left, right)`` with the top relative to the frontier
    and the choices the ``k``-th of ``sets``, whose choices are relative to
    the first fresh choice.  ``top`` is the largest interface choice.
    ``nested`` holds the runs of a run-bearing piece's copies, ``(k, run,
    offset)``: ``run``, moved by ``offset`` ids (:func:`_shift`), goes
    before ``inner[k]``.

    Along a run a template fixes its own placements: each graft takes
    ``n_ids`` ids, its leaf states are the next graft's frontier, so that
    frontier's first top is its first fresh id plus ``leaves[0]``'s top,
    and from the run's second graft on, each graft's first fresh choice is
    ``top + 1`` above the one before.
    """

    n_values: int
    n_ids: int
    inner: list[tuple[int, frozenset[int], int, int]]
    faces: list[tuple[int, int, int, int]]
    leaves: list[tuple[int, frozenset[int], object]]
    sets: list[tuple[int, ...]]
    top: int
    nested: list[tuple[int, "_Run", int]]


class _Run(NamedTuple):
    """A run's block: the ``n`` windows of a run of ``n + 1`` grafts of
    ``tpl``.  Graft ``i`` takes its first fresh id at ``off + i*tpl.n_ids``;
    window ``i`` is its ids, which hold its inner transitions and the
    interface transitions of graft ``i+1``.  Those take their choices from
    ``base + i*(tpl.top+1)``, the first fresh choice of graft ``i+1``, and
    their tops from ``off + i*tpl.n_ids + tpl.leaves[0][0]``, the first of
    graft ``i``'s leaf states.  Graft 0's interface transitions and graft
    ``n``'s inner ones are records, before and after the block."""

    tpl: _Template
    off: int
    base: int
    n: int

    @property
    def top(self) -> int:
        """The largest choice the run holds: its last graft's largest."""
        return self.base + self.n * (self.tpl.top + 1) - 1


def _shift(run: _Run, delta: int) -> _Run:
    """``run`` with its ids moved by ``delta``."""
    return run._replace(off=run.off + delta)


def _fits(run: _Run, root: int, floor: int) -> bool:
    """Whether the ids of ``run``'s windows and of the graft after them,
    all the ids it names, are above ``root`` and below ``floor``."""
    return root < run.off and run.off + (run.n + 1) * run.tpl.n_ids <= floor


def _runs_of(a: Lsta, below_leaves: bool = True) -> tuple:
    """``a``'s blocks, when each run :func:`_fits` above its root and, with
    ``below_leaves``, below its leaf states, as :func:`tensor_chain` and
    :func:`map_leaves` leave them; otherwise its records, as one block.
    The blocks alternate records and runs, and begin and end with records."""
    blocks = a._blocks
    if blocks is not None:
        floor = min(map(_TOP, a.leaves), default=-1) if below_leaves else len(a.states)
        if all(_fits(run, a.root, floor) for run in blocks[1::2]):
            return blocks
    return (a.internal,)


def _inner_at(inner: list[tuple], off: int) -> list[Internal]:
    """Inner transitions of a template placed at first fresh id ``off``."""
    new = tuple.__new__
    return [new(Internal, (off + t, c, off + l, off + r)) for t, c, l, r in inner]


def _faces_at(tpl: _Template, off: int, base: int, front: int) -> list[Internal]:
    """``tpl``'s interface transitions placed at one placement."""
    new = tuple.__new__
    sets = [frozenset(map(base.__add__, cs)) for cs in tpl.sets]
    return [new(Internal, (front + t, sets[k], off + l, off + r)) for t, k, l, r in tpl.faces]


def _materialize(blocks: tuple) -> tuple[Internal, ...]:
    """The records of ``blocks``, in stored order, each run's window by
    window, inner transitions before interface ones: the one place outside
    :func:`write_lsta` that expands a run."""
    out: list[Internal] = []
    for block in blocks:
        if type(block) is tuple:
            out += block
            continue
        tpl, off, base, n = block
        step, stride, first_leaf = tpl.n_ids, tpl.top + 1, tpl.leaves[0][0]
        for i in range(n):
            at = off + i * step
            out += _inner_at(tpl.inner, at)
            out += _faces_at(tpl, at + step, base + i * stride, at + first_leaf)
    return tuple(out)


def _count(blocks) -> int:
    """The number of records ``blocks`` hold, counted without building them."""
    return sum(b.n * (len(b.tpl.inner) + len(b.tpl.faces))
               if type(b) is _Run else len(b) for b in blocks)


def _assemble(semiring: Semiring, n: int, root: int, blocks: list, leaves: list) -> Lsta:
    """The automaton over ids ``0..n-1`` that ``blocks`` hold, explicit when
    they hold no run."""
    if len(blocks) == 1:
        return Lsta(semiring, range(n), root, tuple(blocks[0]), tuple(leaves))
    return _with_blocks(semiring, range(n), root,
                        tuple(b if type(b) is _Run else tuple(b) for b in blocks),
                        tuple(leaves))


def _emit(tpl: _Template, off: int, base: int, front: int, blocks: list,
          run: _Run | None = None) -> list[Leaf]:
    """Write ``tpl`` out at one placement, its first fresh id ``off``, first
    fresh choice ``base`` and frontier's first top ``front``, onto the open
    block of records, ``blocks[-1]``, except for its nested runs, each kept
    as a run.  With ``run``, the windows of a run from this graft on, only
    the graft's interface transitions are written before ``run``, which
    follows as one block; a new block of records opens after it with the
    inner transitions of the graft after its last window.  Returns the last
    graft's leaf transitions; the others' leaves are only the next graft's
    frontier, so they are not built."""
    faces = _faces_at(tpl, off, base, front)
    if run is not None:
        blocks[-1] += faces
        blocks += [run, []]
        off, faces = off + run.n * tpl.n_ids, []
    cut = 0
    for k, nested, delta in tpl.nested:
        blocks[-1] += _inner_at(tpl.inner[cut:k], off)
        blocks += [_shift(nested, off + delta), []]
        cut = k
    blocks[-1] += _inner_at(tpl.inner[cut:] if cut else tpl.inner, off)
    blocks[-1] += faces
    new = tuple.__new__
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
    merged before the first graft.  A graft lays its copies out one after
    another, copy ``i`` from ``i`` times the piece's local ids, and every
    graft but the last then merges the copies' leaf states by the signature
    of their scaled leaf transitions (:func:`_number`): a merged state takes
    no id and emits no transitions, the transitions into it point at its
    representative, the first state with that signature, and the states
    kept are numbered in order.  The peak is the largest intermediate size
    of a left fold of binary tensors, which merges each accumulator before
    grafting onto it, counted before its merges.

    A call sets up each piece once, however often it recurs, in tables
    that live only while it runs and are keyed by objects and numbers in
    hand, never by a leaf value's hash a second time.  Each distinct piece
    object is planned once (:func:`_plan`).  Each leaf value is numbered
    once in the call, where it first appears: the first frontier's values
    as the first graft reads them, and every scaled value as it is made,
    so each later frontier carries its values' numbers.  A copy, a piece's
    scaled leaf transitions, their numbers and its states' signatures, is
    made once per (piece, value number) pair (:func:`_copy`).  After a run
    the frontier has the shape of the run's first graft's frontier, so the
    next graft reuses that frontier's copies and interface index, and, for
    the same piece, as the unmerged last graft after a run, the run's
    interface choice sets and its graft as laid out before its merges.
    ``pieces`` are only read, so one automaton may appear in several
    positions.

    A graft is a :class:`_Template` written out by :func:`_emit` at a
    placement: its first fresh id, first fresh choice and frontier's first
    top.  A merged graft whose leaves have its frontier's shape (every top
    moved by one offset, equal choices and values, in order) starts a
    run: each further merged graft of the same piece object finds that
    frontier again, shifted, so its template places the whole run, up to
    but not including the unmerged last graft.  The run is kept as one
    block of the result, a :class:`_Run` of its windows: the first graft's
    first fresh id, the second graft's first fresh choice and the number of
    windows, from which the template fixes every placement; the first
    graft's interface transitions and the last graft's inner ones are
    written out beside it.  The first fresh id moves by the template's ids;
    the frontier is the previous graft's leaf states; and the first fresh
    choice is one above every choice before it, which from the second
    graft on is the previous graft's largest interface choice, while the
    first graft's may be the piece's largest inner choice.  The run has
    leaf transitions only for its last graft, since the others' leaves are
    only the next graft's frontier.  The size bound is asserted for every
    graft: its second and later grafts share one.

    Runs stay runs through later calls (:func:`_runs_of`).  A first piece
    keeps its blocks up to its last run: only the records after it are
    merged and rebuilt, and only its records and its runs' largest choices
    are read for the largest choice.  A piece with runs is grafted with
    each copy's runs moved by the copy's offset; such a graft starts no run.
    """
    if not pieces:
        raise InternalError("tensor product of no automata")
    acc = pieces[0]
    peak = acc.size
    if len(pieces) == 1:
        return acc, peak
    semiring = acc.semiring
    mul, is_zero = semiring.mul, semiring.is_zero
    *head, tail = _runs_of(acc)
    root, internal, leaves, next_id = _merge_leaf_states(acc, tail)
    blocks: list = [*head, internal]
    unmerged = len(acc.leaves)  # leaf transitions of the last graft before merging
    top_choice = max(chain.from_iterable(map(_CHOICES, chain(*head[::2], internal))), default=0)
    if head:
        top_choice = max(top_choice, *(run.top for run in head[1::2]))
    n_internal = _count(blocks)
    plans: dict[int, list] = {}  # each piece's plan, copies and leaf states, by id
    numbers: dict = {}  # each leaf value, by its number in the call
    frontier_numbers = [numbers.setdefault(v, len(numbers)) for v in map(_AMPLITUDE, leaves)]
    values = list(numbers)
    reshaped, prev = True, None
    last = len(pieces) - 1
    step = 1
    while step <= last:
        b = pieces[step]
        got = plans.get(id(b))
        if got is None:
            if b.semiring != semiring:
                raise InternalError("cannot tensor automata over different semirings")
            got = plans[id(b)] = [_plan(b), {}, None]
        plan, copies_of, leaf_states = got
        front = leaves[0][0] if leaves else 0
        if reshaped:
            # Each frontier leaf's top relative to the first, its choice
            # set's index and its copy: one per distinct value.
            copy_of: dict[int, int] = {}
            set_of: dict[frozenset, int] = {}
            spots = list(zip([a - front for a in map(_TOP, leaves)],
                             [set_of.setdefault(c, len(set_of)) for c in map(_CHOICES, leaves)],
                             [copy_of.setdefault(k, len(copy_of)) for k in frontier_numbers]))
            copies, frontier_sets = list(copy_of), list(set_of)
            ex_index = {c: i for i, c in enumerate(sorted(frozenset().union(*frontier_sets)))}
        roots, width = plan.roots, plan.width
        merging = step < last
        if merging and leaf_states is None:
            leaf_states = got[2] = _leaf_states(plan)
        if reshaped or plan is not prev:
            sets = [tuple([s + i for s in starts for i in cs])
                    for starts in [[ex_index[c] * width for c in lcs] for lcs in frontier_sets]
                    for cs, _l, _r in roots]
            # The graft laid out unmerged, copy i from local id i * n_states.
            # A graft of the same piece onto a frontier of the same shape,
            # as the last graft after a run, is laid out the same.
            inner, n_states, n_roots = plan.inner, plan.n_ids, len(roots)
            made = [copies_of[k] if k in copies_of else copies_of.setdefault(
                        k, _copy(plan, values[k], mul, is_zero, leaf_states,
                                 numbers if merging else None))
                    for k in copies]
            offsets = range(0, len(copies) * n_states, n_states)
            laid = (
                len(copies) * n_states,
                [(o + t, c, o + l, o + r) for o in offsets for t, c, l, r in inner],
                [(o + a, c, p) for o, copy in zip(offsets, made) for a, c, p in copy[0]],
                [(t, i * n_roots + j, o + l, o + r)
                 for t, i, o in [(t, i, vi * n_states) for t, i, vi in spots]
                 for j, (_cs, l, r) in enumerate(roots)],
                # A run's ids are above b's root and below every merged
                # state, so a copy moves them by its first id less one.
                [(i * len(inner) + at, run, o - 1)
                 for i, o in enumerate(offsets) for at, run in plan.runs])
        n_ids, moves, grafted, faces, nested = laid
        grafted_numbers = []
        if merging:
            # Merge the copies' leaf-only states by their signatures; the
            # states kept are numbered in order (:func:`_number`).
            order, _picks, named = leaf_states
            grafted_numbers = [k for copy in made for k in copy[1]]
            if named is not None:
                named = {o + x for o in offsets for x in named}
            ids, merged = _number(range(n_ids), [o + a for o in offsets for a in order],
                                  [sig for copy in made for sig in copy[2]], named)
            if merged:
                moves = [(ids[t], c, ids[l], ids[r]) for t, c, l, r in moves]
                faces = [(t, k, ids[l], ids[r]) for t, k, l, r in faces]
                kept = [a not in merged for a, _c, _p in grafted]
                grafted = [(ids[a], c, p) for a, c, p in compress(grafted, kept)]
                grafted_numbers = list(compress(grafted_numbers, kept))
                if nested:
                    cuts = list(merged)
                    nested = [(at, run, d - bisect_left(cuts, d + 1)) for at, run, d in nested]
                n_ids -= len(merged)
            values += islice(numbers, len(values), None)
        # Every frontier choice and every root choice index occurs.
        tpl = _Template(len(copies), n_ids, moves, faces, grafted, sets,
                        len(ex_index) * width - 1, nested)
        end = step + 1
        if (end < last and pieces[end] is b and grafted and not nested
                and _shape(grafted) == _shape(leaves)):
            # The graft's leaves are its frontier shifted, so each further
            # merged graft of b finds that frontier again: place the run now.
            end += len(list(takewhile(partial(is_, b), islice(pieces, end, last))))
        k, n_new = end - step, len(moves) + len(faces)
        if nested:
            n_new += _count(r for _k, r, _d in nested)
        grown, bound = tpl.n_values * len(plan.leaves), tpl.n_values * plan.size
        # Each graft's size bound; from the second on, its frontier is the
        # previous graft's unmerged leaves.
        assert n_new + grown <= unmerged + bound and (k == 1 or n_new <= bound)
        # A graft's first fresh choice is one above every choice before it.
        # From the second graft on, that is the previous graft's largest
        # interface choice, since its first fresh choice is above inner_max.
        base = top_choice + 1
        if tpl.n_values:
            top_choice = max(base + tpl.top, plan.inner_max)
        run = None
        if k > 1:
            run = _Run(tpl, next_id, top_choice + 1, k - 1)
            top_choice = run.top
        # After a run the frontier is its first graft's, shifted.
        reshaped = run is None
        leaves = _emit(tpl, next_id, base, front, blocks, run)
        frontier_numbers, prev = grafted_numbers, plan
        next_id += k * tpl.n_ids
        n_internal, unmerged = n_internal + k * n_new, grown
        # Sizes only grow along a run, so its last graft is its largest.
        peak = max(peak, n_internal + unmerged)
        step = end
    return _assemble(semiring, next_id, root, blocks, leaves), peak


def _copy(plan: _Plan, v, mul, is_zero, leaf_states=None, numbers=None) -> tuple:
    """A copy of a planned piece for the value ``v``: its leaf transitions,
    each distinct amplitude multiplied by ``v`` once, and a zero factor
    taken as the product, as zero absorbs.  With ``numbers``, the call's
    numbering of values, also each scaled value's number, entered where it
    first appears, and the signature of each state of ``leaf_states``
    (:func:`_leaf_states`): the set of its leaves' (choices, number)
    pairs."""
    amplitudes, leaves = plan.amplitudes, plan.leaves
    if is_zero(v):
        products = [v] * len(amplitudes)
    else:
        products = [p if is_zero(p) else mul(v, p) for p in amplitudes]
    scaled = [(a, c, products[i]) for (a, c, _p), i in zip(leaves, plan.slots)]
    if numbers is None:
        return scaled, None, None
    known = [numbers.setdefault(p, len(numbers)) for p in products]
    scaled_numbers = [known[i] for i in plan.slots]
    pairs = [(c, k) for (_a, c, _p), k in zip(leaves, scaled_numbers)]
    sigs = [frozenset([pairs[i] for i in k]) for k in leaf_states[1]]
    return scaled, scaled_numbers, sigs


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
    if a._blocks is None:
        return Lsta(semiring, a.states, a.root, a.internal, leaves)
    return _with_blocks(semiring, a.states, a.root, a._blocks, leaves)


# ---------------------------------------------------------------------------
# Textual output format.
# ---------------------------------------------------------------------------


def _set_text(cs) -> str:
    return "{%d}" % min(cs) if len(cs) == 1 else "{%s}" % ",".join(map(str, sorted(cs)))


class _Texts(dict):
    """Choice-set texts by set, each made by :func:`_set_text` on its
    first lookup."""

    def __missing__(self, cs) -> str:
        text = self[cs] = _set_text(cs)
        return text


def _in_order(a: Lsta) -> tuple[list[Internal], list[tuple[int, _Run]]]:
    """``a``'s records by ascending top, each state's in stored order, and
    where each run's windows go among them.  Only the record blocks are
    sorted when the windows need no records to be written: they come in
    ascending order, each template's tops lie inside its window, and no
    record's top lies inside a window.  Otherwise all of ``a``'s records
    are."""
    blocks = a._blocks
    if blocks is not None:
        records = sorted(chain.from_iterable(blocks[::2]), key=_TOP)
        cuts, prev = [], 0
        for run in blocks[1::2]:
            tpl, lo = run.tpl, run.off
            hi = lo + run.n * tpl.n_ids
            tops = [*map(_TOP, tpl.inner),
                    *map(tpl.leaves[0][0].__add__, map(_TOP, tpl.faces))] if tpl.leaves else ()
            cut = bisect_left(records, lo, key=_TOP)
            if not (tops and prev <= lo and 0 <= min(tops) and max(tops) < tpl.n_ids
                    and bisect_left(records, hi, key=_TOP) == cut):
                break
            cuts.append((cut, run))
            prev = hi
        else:
            return records, cuts
    return sorted(a.internal, key=_TOP), []


# The most arguments one ``%`` format takes: a long block is formatted in
# slices of whole lines, so the argument tuple each call builds stays bounded.
_SLICE = 4096


def _sliced(line: str, width: int, count: int, fields) -> list[str]:
    """``count`` lines of the ``%`` format ``line``, which takes ``width``
    arguments, one format per slice of at most ``_SLICE`` arguments:
    ``fields(i, k)`` lists the arguments of lines ``i`` to ``i+k-1``.  A
    block of at most one slice, as most are, is one format of ``count``
    lines; only a longer one builds the format of a full slice, once."""
    per = max(1, _SLICE // width)
    if count <= per:
        return [(line * count) % tuple(fields(0, count))] if count else []
    full = line * per
    out = []
    for i in range(0, count, per):
        k = min(per, count - i)
        out.append((full if k == per else line * k) % tuple(fields(i, k)))
    return out


def _rows_text(line: str, width: int, rows: Sequence[tuple], texts: dict) -> list[str]:
    """The text of ``rows``, tuples of ``width`` fields, each a line of
    ``line``: its fields flattened, with each field ``j`` that ``texts``
    keys replaced by ``texts[j]`` of it."""
    def fields(i, k):
        flat = list(chain.from_iterable(rows[i:i + k]))
        for j, text in texts.items():
            flat[j::width] = map(text, flat[j::width])
        return flat

    return _sliced(line, width, len(rows), fields)


def _run_lines(run: _Run) -> list[str]:
    """The text of ``run``'s windows, window by window (see :class:`_Run`):
    a window's transitions by ascending top, each state's in stored order,
    its inner ones before the next graft's interface ones, whose choices
    are that graft's.

    A window's lines are one ``%`` format, repeated over a slice of windows
    (:func:`_sliced`).  Its numbers follow arithmetic progressions along the
    run: ids step by ``tpl.n_ids`` and interface choices by ``tpl.top + 1``,
    so each argument column is assigned from a ``range``, with no Python
    work per line.  An inner transition's choice set enters the format as
    the text :func:`_set_text` makes; an interface set, as ``{%d,...}`` with
    one ``%d`` column per choice, in ascending order, as :func:`_set_text`
    writes it."""
    tpl, off, base, n = run
    step, stride, first_leaf = tpl.n_ids, tpl.top + 1, tpl.leaves[0][0]
    # (top, text, choices, left, right) relative to the window; an
    # interface transition's text is left empty: its choices are arguments.
    order = sorted([(t, _set_text(c), (), l, r) for t, c, l, r in tpl.inner]
                   + [(first_leaf + t, "", tpl.sets[k], step + l, step + r)
                      for t, k, l, r in tpl.faces], key=_TOP)
    line = ""
    columns = []  # each argument's value in the first window, and its step
    for t, text, cs, l, r in order:
        if text:
            line += "i %%d %s -> %%d %%d\n" % text
            columns += [(off + t, step), (off + l, step), (off + r, step)]
        elif len(cs) == 1:  # as translation builds them
            line += "i %d {%d} -> %d %d\n"
            columns += [(off + t, step), (base + cs[0], stride), (off + l, step), (off + r, step)]
        else:
            line += "i %%d {%s} -> %%d %%d\n" % ",".join(["%d"] * len(cs))
            columns += [(off + t, step), *[(base + c, stride) for c in sorted(cs)],
                        (off + l, step), (off + r, step)]
    width = len(columns)

    def fields(i, k):
        args = [0] * (k * width)
        for j, (first, d) in enumerate(columns):
            first += i * d
            args[j::width] = range(first, first + k * d, d)
        return args

    return _sliced(line, width, n, fields)


def write_lsta(a: Lsta, n: int, constraint: str | None = None) -> str:
    """Serialize to the versioned line format (deterministic bytes).

    Internal transitions, then leaf ones, each by ascending top; a state's
    transitions are written in the order they are stored (the order rule).
    A run's windows are written from its template, with no records built,
    wherever they sort as their records would (:func:`_in_order`); the
    writer tests no rule that :func:`validate` tests.

    Each block is written with one ``%`` format per slice (see the module
    docstring): the records between two runs, each run's windows
    (:func:`_run_lines`) and the leaves, whose choice-set and amplitude
    texts are substituted into their fields; the pieces are joined once.
    A choice set's text is made on its first lookup (:class:`_Texts`), so
    no pass over the records lists the distinct sets first.
    ``constraint``, like every amplitude render and variable name, is
    written as given and never becomes part of a format string.
    """
    semiring = a.semiring
    records, cuts = _in_order(a)
    sets = _Texts()
    amplitudes = {v: semiring.render(v) for v in set(map(_AMPLITUDE, a.leaves))}
    names = frozenset().union(*map(semiring.variables, amplitudes))
    out = [f"lsta v1\nsemiring {semiring.name}\nqubits {n}\n"
           f"vars{''.join(f' {v}' for v in sorted(names))}\nroot {a.root}\n"]
    prev = 0
    for cut, run in cuts:
        out += _rows_text("i %d %s -> %d %d\n", 4, records[prev:cut], {1: sets.__getitem__})
        out += _run_lines(run)
        prev = cut
    out += _rows_text("i %d %s -> %d %d\n", 4, records[prev:], {1: sets.__getitem__})
    out += _rows_text("l %d %s -> %s\n", 3, sorted(a.leaves, key=_TOP),
                      {1: sets.__getitem__, 2: amplitudes.__getitem__})
    if constraint:
        out.append(f"constraint {constraint}\n")
    return "".join(out)
