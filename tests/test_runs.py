"""Run blocks: a translated automaton keeps each run of one piece as its
windows, one a graft but the last: their template, first id, first choice
and count.  The first graft's interface transitions and the last graft's
inner ones are records beside the block.  ``validate`` reads a run through
its template and ``write_lsta`` writes it without building its records;
both must agree with the same automaton written out record by record."""

from __future__ import annotations

import ast
import dataclasses
import inspect
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lstaq.build
import lstaq.lsta as L
from lstaq.build import translate
from lstaq.cli import BENCH_MIN_SIZE, bench_sources
from lstaq.errors import InternalError
from lstaq.amplitude import COMPLEX
from lstaq.lsta import Internal, Leaf, Lsta, map_leaves, mk_lsta, validate, write_lsta
from lstaq.parser import parse
from tests.conftest import assert_same_lines, cpoly
from tests.test_composition import _placements

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
    least 3 grafts, whose block holds at least 2 windows."""
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
# one index: a run's template, or a seam, the records beside its block.
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
    """The index in ``a``'s blocks of its first run block of at least 2
    windows, a run of at least 3 grafts."""
    return next((i for i, b in enumerate(a._blocks) if type(b) is L._Run and b.n >= 2), None)


def _split(run, k: int) -> tuple:
    """``run``'s first ``k`` windows and the others, as two runs."""
    tpl = run.tpl
    return run._replace(n=k), run._replace(off=run.off + k * tpl.n_ids,
                                           base=run.base + k * (tpl.top + 1), n=run.n - k)


def _written_out(a: Lsta, i: int, end: int) -> list:
    """``a``'s blocks with the first (``end`` = 0) or last (-1) window of
    the run at ``i`` written out as records beside it."""
    blocks = list(a._blocks)
    run = blocks[i]
    if end == 0:
        one, blocks[i] = _split(run, 1)
        blocks[i - 1] = (*blocks[i - 1], *L._materialize((one,)))
    else:
        blocks[i], one = _split(run, run.n - 1)
        blocks[i + 1] = (*L._materialize((one,)), *blocks[i + 1])
    return blocks


def _seam(a: Lsta, i: int, place: str) -> tuple[int, int]:
    """Where the records of a seam of the run at ``i`` start: the block and
    the index in it of the run's first graft's first interface transition,
    written out last before the run, or of its last graft's first inner
    transition, written out first after it."""
    if place == "first seam":
        return i - 1, len(a._blocks[i - 1]) - len(a._blocks[i].tpl.faces)
    return i + 1, 0


def _injected(a: Lsta, place: str, fault) -> Lsta:
    """``a`` with ``fault`` inside its first long run's template, so every
    window carries it, or in a seam of that run: the interface transitions
    the run grafts onto what precedes it, or the inner transitions whose
    leaf states the next graft continues from."""
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
        blocks = list(a._blocks)
        at, k = _seam(a, i, place)
        records = list(blocks[at])
        fault(records, k, ghost)
        blocks[at] = tuple(records)
    return L._with_blocks(a.semiring, a.states, a.root, tuple(blocks), a.leaves)


PLACES = ("template", "first seam", "last seam")


def _assert_placed_as_its_grafts(run) -> None:
    """``run``'s members against its grafts' placements (``_placements``),
    placed here record by record: window ``i`` holds graft ``i``'s inner
    transitions and graft ``i+1``'s interface ones."""
    tpl, placements = run.tpl, _placements(run)
    firsts = [run.off, *(off for off, _base, _front in placements)]
    records = L._materialize((run,))
    for i, (off, base, front) in enumerate(placements):
        at = firsts[i]
        want = [Internal(at + t, c, at + l, at + r) for t, c, l, r in tpl.inner]
        want += [Internal(front + t, frozenset(base + c for c in tpl.sets[k]), off + l, off + r)
                 for t, k, l, r in tpl.faces]
        assert run.window(i) == want
        # The shape is window i relative to its first id and first choice.
        inner, faces = run.shape()
        assert [Internal(at + t, c, at + l, at + r) for t, c, l, r in inner] + [
            Internal(at + t, frozenset(base + c for c in cs), at + l, at + r)
            for t, cs, l, r in faces] == want
        assert run.moved(7).window(i) == [
            t._replace(top=t.top + 7, left=t.left + 7, right=t.right + 7) for t in want]
    assert list(records) == run.window(0, run.n) == [*chain(*map(run.window, range(run.n)))]
    assert run.strides[0] == firsts[1] - firsts[0]
    if run.n > 1:
        assert run.strides[1] == placements[1][1] - placements[0][1]
    assert run.end == firsts[-1] == max(t.top for t in records) + 1
    assert run.top == max(c for t in records for c in t.choices)
    assert L._count((run,)) == len(records) == run.n * (len(tpl.inner) + len(tpl.faces))
    # The run names its windows' ids and the graft's after them.
    floor = run.end + tpl.n_ids
    assert run.fits(run.off - 1, floor)
    assert not run.fits(run.off, floor) and not run.fits(run.off - 1, floor - 1)


def test_every_run_bearing_automaton_passes_through_its_templates():
    autos = _run_bearing()
    assert len(autos) > 30
    for a in autos:
        assert L._holds(a)
        validate(a)
        for run in a._blocks[1::2]:
            _assert_placed_as_its_grafts(run)
        i = _first_long_run(a)
        # The seams: the first graft's interface transitions, into the first
        # window, and the last graft's inner ones, past the last window.
        run = a._blocks[i]
        step, end = run.tpl.n_ids, run.off + run.n * run.tpl.n_ids
        at, k = _seam(a, i, "first seam")
        assert all(run.off <= t.left < run.off + step for t in a._blocks[at][k:])
        at, k = _seam(a, i, "last seam")
        assert all(end <= t.top < end + step for t in a._blocks[at][k:k + len(run.tpl.inner)])
        # A window written out beside its run is a record like any other.
        for end in (0, -1):
            blocks = _written_out(a, i, end)
            b = L._with_blocks(a.semiring, a.states, a.root, tuple(blocks), a.leaves)
            assert b.internal == a.internal and L._holds(b)


# The readers of run blocks, which place a window only through ``_Run``.
READERS = ("_holds", "_materialize", "_in_order", "_run_lines", "_count", "_runs_of",
           "union_all")


def test_only_a_run_places_its_windows():
    # No reader restates a window's arithmetic: no sum or product of a
    # run's ``off``, ``base`` or ``n_ids``, and no index into a template's
    # leaves, whose first top places a window's interface transitions.
    defs = {node.name: node for node in ast.parse(inspect.getsource(L)).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert not {"_shift", "_fits"} & set(defs)
    for name in READERS:
        for node in ast.walk(defs[name]):
            operands = ((node.left, node.right) if isinstance(node, ast.BinOp)
                        else (node.target, node.value) if isinstance(node, ast.AugAssign) else ())
            assert not any(isinstance(x, ast.Attribute) and x.attr in ("off", "base", "n_ids")
                           for x in operands), (name, ast.unparse(node))
            assert not (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Attribute)
                        and node.value.attr == "leaves"), (name, ast.unparse(node))


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


def _moved_frontier(blocks, i, by=1):
    # The template's first leaf moved by ``by``: each graft's frontier with it.
    run = blocks[i]
    (top, c, v), *rest = run.tpl.leaves
    blocks[i] = run._replace(tpl=run.tpl._replace(leaves=[(top + by, c, v), *rest]))


def _longer_graft(a, i):
    # Every window of the run one id longer: its template gains a bare id
    # after its own.  The ids from the run's last graft's up move by as many
    # as the run has windows, so the ids are still 0..N-1 and the last
    # window's interface transitions still reach the last graft's records:
    # only the bare ids, one in every window, tell it apart.
    run = a._blocks[i]
    tpl, hi, d = run.tpl, _placements(run)[-1][0], run.n

    def move(s):
        return s + d if s >= hi else s

    longer = tpl._replace(n_ids=tpl.n_ids + 1)
    blocks = []
    for k, b in enumerate(a._blocks):
        if k == i:
            b = run._replace(tpl=longer)
        elif type(b) is L._Run:
            b = b._replace(off=move(b.off))
        else:
            b = tuple(t._replace(top=move(t.top), left=move(t.left), right=move(t.right))
                      for t in b)
        blocks.append(b)
    leaves = tuple(t._replace(top=move(t.top)) for t in a.leaves)
    return L._with_blocks(a.semiring, range(len(a.states) + d), move(a.root), tuple(blocks),
                          leaves)


def _child_before_the_run(blocks, i):
    # Inside every later window the child is an id, but not in the first.
    run = blocks[i]
    tpl, off = run.tpl, run.off
    if tpl.inner:
        t, c, _l, r = tpl.inner[0]
        tpl = tpl._replace(inner=[(t, c, -off - 1, r), *tpl.inner[1:]])
    else:
        # The first window's interface transitions are its next graft's.
        t, k, _l, r = tpl.faces[0]
        tpl = tpl._replace(faces=[(t, k, -off - tpl.n_ids - 1, r), *tpl.faces[1:]])
    blocks[i] = run._replace(tpl=tpl)


def _interface_on_an_inner_top(blocks, i):
    # One more interface transition per graft, on a top that the previous
    # graft's inner transitions leave, with a set that meets their choice
    # at the run's third graft only, in its second window.
    run = blocks[i]
    tpl = run.tpl
    if not tpl.inner:
        return _child_before_the_run(blocks, i)
    t, c, l, r = tpl.inner[0]
    sets = [*tpl.sets, (min(c) - _placements(run)[1][1],)]
    face = (t - tpl.leaves[0][0], len(sets) - 1, l, r)
    blocks[i] = run._replace(tpl=tpl._replace(sets=sets, faces=[*tpl.faces, face]))


def _bare_inside(blocks, i):
    # An id without transitions in every window: the seams' records, for
    # the like ids of the grafts before and after the windows, stay.
    run = blocks[i]
    tpl = run.tpl
    if tpl.inner:
        t = tpl.inner[0][0]
        tpl = tpl._replace(inner=[x for x in tpl.inner if x[0] != t])
    else:
        t = tpl.faces[0][0]
        tpl = tpl._replace(faces=[x for x in tpl.faces if x[0] != t])
    blocks[i] = run._replace(tpl=tpl)


def _past_the_last_id(a, i):
    # The automaton cut where the run's last window ends: no record or
    # leaf is past the last id, but the last window's children are.
    last = _placements(a._blocks[i])[-1][0]
    return L._with_blocks(a.semiring, range(last), a.root, (*a._blocks[:i + 1], ()), ())


def _child_past_the_end(a, i):
    # A child that is the last id from the run's first window, and so is
    # past it from every later window.
    blocks = list(a._blocks)
    run = blocks[i]
    tpl, last = run.tpl, len(a.states) - 1 - run.off
    if tpl.inner:
        t, c, _l, r = tpl.inner[0]
        tpl = tpl._replace(inner=[(t, c, last, r), *tpl.inner[1:]])
    else:
        # An interface transition's children are its next graft's ids.
        t, k, _l, r = tpl.faces[0]
        tpl = tpl._replace(faces=[(t, k, last - tpl.n_ids, r), *tpl.faces[1:]])
    blocks[i] = run._replace(tpl=tpl)
    return L._with_blocks(a.semiring, a.states, a.root, tuple(blocks), a.leaves)


def _top_before_the_window(a, i):
    # A template's inner top moved to the id just before each window, with
    # choices of its own, and that id of the first window held by records:
    # only the first window's tops tell that the later ones have a gap.
    blocks = list(a._blocks)
    run = blocks[i]
    tpl = run.tpl
    if not tpl.inner:
        return _on_blocks(_child_before_the_run)(a, i)
    t = tpl.inner[0][0]
    ghost = run.top + 1  # above every choice of the run and the graft before it
    inner = [(-1, frozenset({ghost + j}), l, r) if top == t else (top, c, l, r)
             for j, (top, c, l, r) in enumerate(tpl.inner)]
    blocks[i - 1] = (*blocks[i - 1], *L._inner_at([x for x in tpl.inner if x[0] == t], run.off))
    blocks[i] = run._replace(tpl=tpl._replace(inner=inner))
    return L._with_blocks(a.semiring, a.states, a.root, tuple(blocks), a.leaves)


def _tops_past_the_last_id(a, i):
    # The automaton cut one id short of the end of the run's last window,
    # with every child in each window on its first id: no child is past
    # the last id, but the last window's last top is.
    run = a._blocks[i]
    tpl, step = run.tpl, run.tpl.n_ids
    tpl = tpl._replace(inner=[(t, c, 0, 0) for t, c, _l, _r in tpl.inner],
                       faces=[(t, k, -step, -step) for t, k, _l, _r in tpl.faces])
    return L._with_blocks(a.semiring, range(run.off + run.n * step - 1), a.root,
                          (*a._blocks[:i], run._replace(tpl=tpl), ()), ())


def _out_of_order_over_ghosts(a, i):
    # The run split in two, its upper half stored first, and every window
    # but the halves' first ones written out as records after them, beside
    # as many records on ghost ids past the last one as a window has ids:
    # taken in stored order, the ids outside the runs' later windows count
    # the upper half's first window twice.
    blocks = list(a._blocks)
    run = blocks[i]
    low, high = _split(run, run.n // 2)
    later = [_split(r, 1)[1] for r in (low, high)]
    ghost, one = len(a.states), frozenset({1})
    ghosts = [Internal(ghost + j, one, run.off, run.off) for j in range(run.tpl.n_ids)]
    blocks[i:i + 2] = [high, (), low, (*blocks[i + 1], *L._materialize(later), *ghosts)]
    return L._with_blocks(a.semiring, a.states, a.root, tuple(blocks), a.leaves)


RUN_FAULTS = {"a frontier moved by one": _on_blocks(_moved_frontier),
              "a graft one id longer": _longer_graft,
              "a child before the run": _on_blocks(_child_before_the_run),
              "an interface transition on an inner top": _on_blocks(_interface_on_an_inner_top),
              "an id bare inside the run only": _on_blocks(_bare_inside),
              "a last window past the last id": _past_the_last_id,
              "a child past the last id from the last window": _child_past_the_end,
              "a template top before its window": _top_before_the_window,
              "a last window's tops past the last id": _tops_past_the_last_id,
              "runs out of order over ghost ids": _out_of_order_over_ghosts}


@pytest.mark.parametrize("fault", RUN_FAULTS)
def test_a_fault_in_how_a_run_is_placed_is_named_as_in_its_records(fault):
    for a in _run_bearing():
        _assert_same_error(RUN_FAULTS[fault](a, _first_long_run(a)))


def test_run_interiors_out_of_order_are_named_as_in_their_records():
    # Each first long run split in two, its upper half stored first, and
    # both halves' windows written out again after them: every id is then
    # the top of a record, as if each window were a gap between the runs,
    # and every transition of the windows repeats.
    autos = _run_bearing()
    assert len(autos) > 30
    for a in autos:
        i = _first_long_run(a)
        blocks = list(a._blocks)
        run = blocks[i]
        low, high = _split(run, run.n // 2)
        blocks[i:i + 2] = [high, (), low, (*blocks[i + 1], *L._materialize((low, high)))]
        _assert_same_error(L._with_blocks(a.semiring, a.states, a.root, tuple(blocks), a.leaves))


@pytest.mark.parametrize("place", PLACES)
def test_an_id_gap_is_named_as_in_its_records(place):
    for a in _run_bearing():
        i = _first_long_run(a)
        # An id of the run's first window, or the top of a seam's first
        # record.
        if place == "template":
            off = a._blocks[i].off
        else:
            at, k = _seam(a, i, place)
            off = a._blocks[at][k].top
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


def test_composed_operands_keep_their_runs_above_the_root(monkeypatch):
    # Every run-bearing operand of a composition of several pieces keeps its
    # blocks, and each run's second graft grafts onto its first window, the
    # n_ids ids just before its own, above the root: as the records show,
    # not the run's arithmetic.
    operands = []

    def recording(kind, compose):
        def record(pieces):
            if len(pieces) > 1:
                operands.extend((kind, p) for p in pieces if p._blocks is not None)
            return compose(pieces)
        return record

    monkeypatch.setattr(lstaq.build, "tensor_chain", recording("tensor", L.tensor_chain))
    monkeypatch.setattr(lstaq.build, "union_all", recording("union", L.union_all))
    for family in FAMILIES:
        list(_translated(family, 64))
    assert {kind for kind, _p in operands} == {"tensor", "union"}
    for kind, p in operands:
        assert L._runs_of(p, below_leaves=kind == "tensor") is p._blocks
        for run in p._blocks[1::2]:
            step = run.tpl.n_ids
            first = range(run.off, run.off + step)
            second = range(run.off + step, run.off + 2 * step)
            front = {t.top for t in p.internal
                     if (t.left in second or t.right in second) and t.top not in second}
            assert front and p.root < min(front) and front <= set(first)


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
            assert_same_lines(text, write_lsta(_explicit(a), qubits))
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
            assert _written_runs(a) == list(a._blocks[1::2])
            for run in a._blocks[1::2]:
                _assert_placed_as_its_grafts(run)
            assert L._holds(a)
            assert write_lsta(a, k) == write_lsta(_explicit(a), k)


def test_runs_below_a_root_are_composed_as_their_records():
    # A union's root is its last id, so the runs of its first piece lie
    # below it: composing the union must not move them as runs above a
    # root move (``_Run.fits``).
    from tests.conftest import cpoly, normalize
    from tests.test_composition import _assert_chain_is_the_fold, _piece, _ref_union

    p = _piece(COMPLEX, {"0": cpoly("1"), "1": cpoly("-1")})
    for k in (5, 9):
        # Equal pieces that are distinct objects start no run.
        y = L.tensor_chain([_piece(COMPLEX, {"0": cpoly("1")}) for _ in range(k)])[0]
        u = L.union_all([L.tensor_chain([p] * k)[0], y])
        assert u._blocks is not None and y._blocks is None
        _assert_chain_is_the_fold([p, u, u])
        validate(L.union_all([y, u]))
        assert normalize(L.union_all([y, u])) == normalize(_ref_union(y, _explicit(u)))


def test_run_bearing_automata_keep_the_lsta_interface():
    a, qubits = next(_translated("bv", 64))
    mapped = map_leaves(a, lambda v: v)
    assert mapped._blocks is a._blocks and "internal" not in mapped.__dict__
    assert isinstance(a.internal, tuple) and a.internal is a.internal
    copy = dataclasses.replace(a, internal=a.internal[1:])
    assert copy._blocks is None and copy.internal == a.internal[1:]
    assert dataclasses.replace(a, root=a.root) == a == _explicit(a)
    assert write_lsta(mapped, qubits) == write_lsta(a, qubits)


# ---------------------------------------------------------------------------
# Writing: a run's windows are formatted from their template, a slice of
# windows at a time, and must give the bytes of its explicit copy.
# ---------------------------------------------------------------------------


def _assert_written_as_its_records(a: Lsta, qubits: int) -> None:
    assert_same_lines(write_lsta(a, qubits), write_lsta(dataclasses.replace(a), qubits))


def _written_runs(a: Lsta) -> list:
    """The runs whose windows ``write_lsta`` writes from their templates."""
    return [run for _cut, run, _shape in L._in_order(a)[1]]


def _three_sets_piece() -> Lsta:
    """A two-level piece whose runs' windows hold 14 lines, with three inner
    and three interface choice sets."""
    one, minus = cpoly("1"), cpoly("-1")
    c1, c2, c3 = (frozenset({c}) for c in (1, 2, 3))
    return mk_lsta(COMPLEX, 4, [
        Internal(4, c1, 2, 3), Internal(4, c2, 3, 2), Internal(4, c3, 2, 2),
        Internal(2, c1, 0, 1), Internal(2, c2, 1, 0),
        Internal(3, c1, 0, 0), Internal(3, c3, 1, 1)],
        [Leaf(0, c1, one), Leaf(1, c1, minus)])


def test_a_run_of_two_grafts_writes_one_window():
    # A run of two grafts is one window: its block adds the template's lines
    # once.
    autos = [aq for family in ("ghz", "grover", "mctoffoli") for aq in _translated(family, 5)]
    autos.append((L.tensor_chain([_three_sets_piece()] * 4)[0], 8))
    ones = 0
    for a, qubits in autos:
        for run in _written_runs(a):
            if run.n == 1:
                ones += 1
                lines = "".join(L._run_lines(run, *run.shape())).splitlines()
                assert len(lines) == len(run.tpl.inner) + len(run.tpl.faces)
        _assert_written_as_its_records(a, qubits)
        assert "\n\n" not in write_lsta(a, qubits)
    assert ones >= 3


@pytest.mark.parametrize("slice_", [1, 10, 100, L._SLICE])
def test_windows_across_a_power_of_ten_are_written_as_their_records(monkeypatch, slice_):
    # Small slices start a format in mid-run, on either side of a new digit.
    monkeypatch.setattr(L, "_SLICE", slice_)
    crossed = set()
    for family in FAMILIES:
        for a, qubits in _translated(family, 300):
            for run in _written_runs(a):
                step, stride = run.tpl.n_ids, run.tpl.top + 1
                last = run.n - 1  # the last window
                crossed.update(("id", m) for m in (2, 3)
                               if run.off < 10 ** m <= run.off + last * step)
                crossed.update(("choice", m) for m in (1, 2)
                               if run.base < 10 ** m <= run.base + last * stride)
            _assert_written_as_its_records(a, qubits)
    assert crossed == {("id", 2), ("id", 3), ("choice", 1), ("choice", 2)}


@pytest.mark.parametrize("slice_", [1, 100, L._SLICE])
def test_windows_of_several_lines_and_choice_sets_are_written_as_their_records(
        monkeypatch, slice_):
    monkeypatch.setattr(L, "_SLICE", slice_)
    p = _three_sets_piece()
    for k in (5, 40):
        a, _peak = L.tensor_chain([p] * k)
        (run,) = _written_runs(a)
        tpl = run.tpl
        assert len(tpl.inner) + len(tpl.faces) == 14 and len(set(tpl.sets)) == 3
        assert len(set(map(L._CHOICES, tpl.inner))) == 3
        validate(a)
        _assert_written_as_its_records(a, 2 * k)


@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_run_bearing_automata_are_written_as_their_records(family, data):
    n = data.draw(st.integers(BENCH_MIN_SIZE[family], 300), label="n")
    for a, qubits in _translated(family, n):
        _assert_written_as_its_records(a, qubits)


def test_validate_and_write_keep_nothing_on_a_run_bearing_automaton():
    # translate validates each automaton it returns; neither that nor
    # writing, validating again or reading the records changes what the
    # writer reads.
    autos = [(a, q) for a, q in _translated("grover", 8) if a._blocks is not None]
    assert autos
    texts = [write_lsta(a, q) for a, q in autos]
    validate(autos[0][0])
    for a, _q in autos:
        assert set(a.__dict__) == {"semiring", "states", "root", "leaves", "_blocks"}
    for (a, q), text in zip(autos, texts):
        assert a.internal and write_lsta(a, q) == text
    # An explicit copy validates and writes alike.
    a, q = autos[0]
    copy = dataclasses.replace(a)
    validate(copy)
    assert write_lsta(copy, q) == texts[0]
    # A fault in a run is written as its records are.  Moved by one, a
    # frontier may stay inside its windows, which is all that writing a run
    # from its template needs; moved by a window, it is written from the
    # records.
    for a, _q in autos:
        i = _first_long_run(a)
        moved = RUN_FAULTS["a frontier moved by one"](a, i)
        out = _on_blocks(lambda blocks, i: _moved_frontier(blocks, i, blocks[i].tpl.n_ids))(a, i)
        for b in (moved, out):
            with pytest.raises(InternalError):
                validate(b)
            assert not L._holds(b)
            assert write_lsta(b, 1) == write_lsta(_explicit(b), 1)
        assert _written_runs(out) == []


def test_runs_out_of_order_or_over_records_are_written_as_their_records():
    # A run is written from its template only where its windows sort as
    # their records would: each first long run split in two, its upper half
    # stored first, and, apart, its lower half's windows also written out as
    # records before it.
    for a in _run_bearing():
        i = _first_long_run(a)
        blocks = list(a._blocks)
        run = blocks[i]
        low, high = _split(run, run.n // 2)
        swapped = [*blocks[:i], high, (), low, *blocks[i + 1:]]
        over = [*blocks[:i - 1], (*blocks[i - 1], *L._materialize((low,))), *blocks[i:]]
        for edited in (swapped, over):
            b = L._with_blocks(a.semiring, a.states, a.root, tuple(edited), a.leaves)
            assert _written_runs(b) == []
            _assert_written_as_its_records(b, 1)


def test_translate_and_write_build_no_records(monkeypatch):
    def refused(blocks):
        raise AssertionError("a run's records were built")

    monkeypatch.setattr(L, "_materialize", refused)
    for n in (5, 1024):
        bearing = 0
        for family in FAMILIES:
            for a, qubits in _translated(family, n):
                write_lsta(a, qubits)
                if a._blocks is not None:
                    bearing += 1
                    assert "internal" not in a.__dict__
        assert bearing > 0
