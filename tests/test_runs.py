"""Run blocks: a translated automaton keeps each run of one piece as its
template and placements.  ``validate`` reads a run through its template and
``write_lsta`` writes it without building its records; both must agree with
the same automaton written out record by record."""

from __future__ import annotations

import dataclasses

import pytest

import lstaq.lsta as L
from lstaq.build import translate
from lstaq.cli import bench_sources
from lstaq.errors import InternalError
from lstaq.amplitude import COMPLEX
from lstaq.lsta import Internal, Leaf, Lsta, map_leaves, mk_lsta, validate, write_lsta
from lstaq.parser import parse

FAMILIES = ("bv", "ghz", "grover", "groveriter", "mctoffoli")


def _translated(family: str, n: int):
    """(automaton, qubits) of every assertion of ``family`` at size ``n``."""
    for pre, post, joint in bench_sources(family, n):
        for group in ([pre, post],) if joint else ([pre], [post]):
            result = translate([parse(t) for t in group])
            yield from ((ar.automaton, result.qubits) for ar in result.assertions)


def _explicit(a: Lsta) -> Lsta:
    return Lsta(a.semiring, a.states, a.root, tuple(a.internal), a.leaves)


def _run_bearing() -> list[Lsta]:
    """The distinct family automata at n = 5, 8 and 33 with a run of at
    least 3 grafts."""
    found: dict[int, Lsta] = {}
    for n in (5, 8, 33):
        for family in FAMILIES:
            found.update((id(a), a) for a, _q in _translated(family, n)
                         if a._blocks is not None and _first_long_run(a) is not None)
    return list(found.values())


def _error(a: Lsta) -> InternalError:
    with pytest.raises(InternalError) as err:
        validate(a)
    return err.value


def _assert_same_error(a: Lsta) -> None:
    """``a`` raises what its explicit copy raises: class and message."""
    want, got = _error(_explicit(a)), _error(a)
    assert (type(got), str(got)) == (type(want), str(want))


# ---------------------------------------------------------------------------
# Faults, each injected into a list of (top, choices, left, right) records at
# one index: a run's template, or one placement written out beside its run.
# ---------------------------------------------------------------------------


def _dangle(field):
    def inject(records, k, ghost):
        records[k] = records[k]._replace(**{field: ghost})
    return inject


def _empty(records, k, ghost):
    records[k] = records[k]._replace(choices=frozenset())


def _overlap(records, k, ghost):
    # Two multi-choice sets from one top that share the record's choices.
    t = records[k]
    records[k] = t._replace(choices=t.choices | {ghost})
    records.insert(k + 1, t._replace(choices=t.choices | {ghost + 1}, left=t.right, right=t.left))


def _repeat(records, k, ghost):
    t = records[k]
    records.insert(k + 1, t._replace(left=t.right, right=t.left))


def _bare(records, k, ghost):
    # Every transition from the record's top is dropped: an id without one.
    top = records[k].top
    records[:] = [t for t in records if t.top != top]


FAULTS = {"dangling top": _dangle("top"), "dangling left": _dangle("left"),
          "dangling right": _dangle("right"), "empty choice set": _empty,
          "overlapping multi-choice sets": _overlap,
          "repeated singleton choice": _repeat, "id without a transition": _bare}


def _first_long_run(a: Lsta) -> int | None:
    """The index in ``a``'s blocks of its first run of at least 3 grafts."""
    return next((i for i, b in enumerate(a._blocks)
                 if type(b) is L._Run and len(b.placements) >= 3), None)


def _written_out(a: Lsta, i: int, end: int) -> tuple[list, int, int]:
    """``a``'s blocks with the first (``end`` = 0) or last (-1) placement of
    the run at ``i`` written out as records beside it; the index of the
    block that holds them and where they start in it."""
    blocks = list(a._blocks)
    run = blocks[i]
    p, tpl = run.placements, run.tpl
    records = [*L._inner_at(tpl.inner, p[end][0]), *L._faces_at(tpl, *p[end])]
    if end == 0:
        rest = L._Placements(p[1], p.n - 1, p.step, p.lead, p[2][1], p.stride)
        at, start = i - 1, len(blocks[i - 1])
        blocks[at] = (*blocks[at], *records)
    else:
        rest = dataclasses.replace(p, n=p.n - 1)
        at, start = i + 1, 0
        blocks[at] = (*records, *blocks[at])
    blocks[i] = run._replace(placements=rest)
    return blocks, at, start


def _injected(a: Lsta, place: str, fault) -> Lsta:
    """``a`` with ``fault`` inside its first long run's template, so every
    placement carries it, or at that run's first or last placement: the
    interface transitions the run grafts onto what precedes it, or the inner
    transitions whose leaf states the next graft continues from."""
    i, ghost = _first_long_run(a), len(a.states) + 10
    if place == "template":
        blocks, run = list(a._blocks), a._blocks[i]
        tpl = run.tpl
        if tpl.inner:
            inner = [Internal(*t) for t in tpl.inner]
            fault(inner, 0, ghost)
            tpl = tpl._replace(inner=inner)
        else:
            # Interface transitions only: each set is relative to a
            # placement's first fresh choice, so a fault in it is too.
            faces = [Internal(t, frozenset(tpl.sets[k]), l, r) for t, k, l, r in tpl.faces]
            fault(faces, 0, ghost)
            sets = list(dict.fromkeys(tuple(sorted(t.choices)) for t in faces))
            tpl = tpl._replace(sets=sets, faces=[(t, sets.index(tuple(sorted(c))), l, r)
                                                 for t, c, l, r in faces])
        blocks[i] = run._replace(tpl=tpl)
    else:
        blocks, at, start = _written_out(a, i, 0 if place == "first seam" else -1)
        records = list(blocks[at])
        k = start + (len(a._blocks[i].tpl.inner) if place == "first seam" else 0)
        fault(records, k, ghost)
        blocks[at] = tuple(records)
    return L._with_blocks(a.semiring, a.states, a.root, tuple(blocks), a.leaves)


PLACES = ("template", "first seam", "last seam")


def test_every_run_bearing_automaton_passes_through_its_templates():
    autos = _run_bearing()
    assert len(autos) > 30
    for a in autos:
        assert L._runs_hold(a)
        validate(a)
        # A placement written out beside its run is a seam as well.
        i = _first_long_run(a)
        for end in (0, -1):
            blocks, _at, _start = _written_out(a, i, end)
            b = L._with_blocks(a.semiring, a.states, a.root, tuple(blocks), a.leaves)
            assert b.internal == a.internal and L._runs_hold(b)


@pytest.mark.parametrize("place", PLACES)
@pytest.mark.parametrize("fault", FAULTS)
def test_a_fault_in_a_run_is_named_as_in_its_records(place, fault):
    for a in _run_bearing():
        _assert_same_error(_injected(a, place, FAULTS[fault]))


# Faults in how a run is placed, each applied to ``blocks[i]``, a run of at
# least 3 grafts, and the records beside it; ``_on_blocks`` makes such an
# edit a fault of the automaton.


def _on_blocks(edit):
    def fault(a, i):
        blocks = list(a._blocks)
        edit(blocks, i)
        return L._with_blocks(a.semiring, a.states, a.root, tuple(blocks), a.leaves)
    return fault


def _moved_frontier(blocks, i):
    p = blocks[i].placements
    blocks[i] = blocks[i]._replace(placements=dataclasses.replace(p, lead=p.lead + 1))


def _longer_graft(a, i):
    # Every window of the run one id longer, that id bare.  The ids from its
    # last placement's up move by as many, so the ids are still 0..N-1, the
    # run's last window ends by the last id and the records outside the
    # run's interior are unchanged: only the run's step tells it apart.
    p = a._blocks[i].placements
    hi, d = p[-1][0], p.n - 1

    def move(s):
        return s + d if s >= hi else s

    blocks = []
    for k, b in enumerate(a._blocks):
        if k == i:
            b = b._replace(placements=dataclasses.replace(p, step=p.step + 1))
        elif type(b) is L._Run:
            off, base, front = b.placements.first
            first = (move(off), base, move(front))
            b = b._replace(placements=dataclasses.replace(b.placements, first=first))
        else:
            b = tuple(t._replace(top=move(t.top), left=move(t.left), right=move(t.right))
                      for t in b)
        blocks.append(b)
    leaves = tuple(t._replace(top=move(t.top)) for t in a.leaves)
    return L._with_blocks(a.semiring, range(len(a.states) + d), move(a.root), tuple(blocks),
                          leaves)


def _child_before_the_run(blocks, i):
    # Inside every later placement the child is an id, but not in the first.
    run = blocks[i]
    tpl, off = run.tpl, run.placements[0][0]
    if tpl.inner:
        t, c, _l, r = tpl.inner[0]
        tpl = tpl._replace(inner=[(t, c, -off - 1, r), *tpl.inner[1:]])
    else:
        t, k, _l, r = tpl.faces[0]
        tpl = tpl._replace(faces=[(t, k, -off - 1, r), *tpl.faces[1:]])
    blocks[i] = run._replace(tpl=tpl)


def _interface_on_an_inner_top(blocks, i):
    # One more interface transition per placement, on a top that the
    # previous placement's inner transitions leave, with a set that meets
    # their choice at the third placement only.
    run = blocks[i]
    tpl, p = run.tpl, run.placements
    if not tpl.inner:
        return _child_before_the_run(blocks, i)
    t, c, l, r = tpl.inner[0]
    sets = [*tpl.sets, (min(c) - p[2][1],)]
    face = (t - p.lead, len(sets) - 1, l, r)
    blocks[i] = run._replace(tpl=tpl._replace(sets=sets, faces=[*tpl.faces, face]))


def _bare_inside(blocks, i):
    # An id without transitions in every window but the one a seam keeps:
    # the seam's records for it stay, written out beside the run.
    run = blocks[i]
    tpl, p = run.tpl, run.placements
    if tpl.inner:
        t = tpl.inner[0][0]
        gone = [x for x in tpl.inner if x[0] == t]
        blocks[i] = run._replace(tpl=tpl._replace(inner=[x for x in tpl.inner if x[0] != t]))
        blocks[i + 1] = (*L._inner_at(gone, p[-1][0]), *blocks[i + 1])
    else:
        t = tpl.faces[0][0]
        gone = tpl._replace(faces=[x for x in tpl.faces if x[0] == t])
        blocks[i] = run._replace(tpl=tpl._replace(faces=[x for x in tpl.faces if x[0] != t]))
        blocks[i - 1] = (*blocks[i - 1], *L._faces_at(gone, *p[0]))


RUN_FAULTS = {"a frontier moved by one": _on_blocks(_moved_frontier),
              "a graft one id longer": _longer_graft,
              "a child before the run": _on_blocks(_child_before_the_run),
              "an interface transition on an inner top": _on_blocks(_interface_on_an_inner_top),
              "an id bare inside the run only": _on_blocks(_bare_inside)}


@pytest.mark.parametrize("fault", RUN_FAULTS)
def test_a_fault_in_how_a_run_is_placed_is_named_as_in_its_records(fault):
    for a in _run_bearing():
        _assert_same_error(RUN_FAULTS[fault](a, _first_long_run(a)))


@pytest.mark.parametrize("place", PLACES)
def test_an_id_gap_is_named_as_in_its_records(place):
    for a in _run_bearing():
        run = a._blocks[_first_long_run(a)]
        off = {"template": run.placements[1][0], "first seam": run.placements[0][0],
               "last seam": run.placements[-1][0]}[place]
        n = len(a.states)
        gap = L._with_blocks(a.semiring, frozenset(range(n + 1)) - {off}, a.root,
                             a._blocks, a.leaves)
        _assert_same_error(gap)


def test_a_dangling_root_or_leaf_top_is_named_as_in_its_records():
    for a in _run_bearing():
        ghost = len(a.states) + 1
        _assert_same_error(L._with_blocks(a.semiring, a.states, ghost, a._blocks, a.leaves))
        leaves = list(a.leaves)
        leaves[len(leaves) // 2] = leaves[len(leaves) // 2]._replace(top=ghost)
        _assert_same_error(L._with_blocks(a.semiring, a.states, a.root, a._blocks,
                                          tuple(leaves)))


# ---------------------------------------------------------------------------
# Runs stay runs: a structural count, not a timing.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("family", FAMILIES)
def test_runs_stay_runs_as_the_qubits_double(family):
    held = {}
    for n in (512, 1024):
        counts = []
        for a, qubits in _translated(family, n):
            assert a._blocks is not None
            counts.append(sum(map(len, a._blocks[::2])))
            size, text = a.size, write_lsta(a, qubits)
            assert size == len(a.internal) + len(a.leaves)
            assert text == write_lsta(_explicit(a), qubits)
        held[n] = counts
    assert held[512] == held[1024]


def test_runs_of_multi_choice_sets_are_written_and_validated_as_their_records():
    # Translation builds singleton choice sets only; these pieces' root and
    # leaf sets give every run interface sets of several choices.
    from tests.conftest import cpoly
    from tests.test_composition import _assert_chain_is_the_fold

    one, two = cpoly("1"), frozenset({1, 2})
    pieces = [
        mk_lsta(COMPLEX, 1, [Internal(1, two, 0, 0)], [Leaf(0, frozenset({1}), one)]),
        mk_lsta(COMPLEX, 1, [Internal(1, frozenset({1}), 0, 0)], [Leaf(0, two, one)]),
        mk_lsta(COMPLEX, 2, [Internal(2, frozenset({1}), 0, 1), Internal(2, frozenset({2, 3}), 1, 0)],
                [Leaf(0, two, one), Leaf(1, frozenset({3}), one)]),
    ]
    for p in pieces:
        for k in (5, 9):
            _assert_chain_is_the_fold([p] * k)
            a, _peak = L.tensor_chain([p] * k)
            assert any(len(cs) > 1 for run in a._blocks[1::2] for cs in run.tpl.sets)
            assert L._runs_hold(a)
            assert write_lsta(a, k) == write_lsta(_explicit(a), k)


def test_run_bearing_automata_keep_the_lsta_interface():
    a, qubits = next(_translated("bv", 64))
    mapped = map_leaves(a, lambda v: v)
    assert mapped._blocks is a._blocks and "internal" not in mapped.__dict__
    assert isinstance(a.internal, tuple) and a.internal is a.internal
    copy = dataclasses.replace(a, internal=a.internal[1:])
    assert copy._blocks is None and copy.internal == a.internal[1:]
    assert dataclasses.replace(a, root=a.root) == a == _explicit(a)
    assert write_lsta(mapped, qubits) == write_lsta(a, qubits)
