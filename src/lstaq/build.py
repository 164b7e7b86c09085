"""Levelwise automaton construction and end-to-end assembly.

The entry point is :func:`translate`, which runs the whole pipeline:
canonicalize, align, abstract constants, reorder slots and qubits, expand
slices, and compose the per-slice automata with the n-ary ``tensor_chain``
and ``union_all`` and the two amplitude-domain crossings (``filter_f``,
``filter_tau``).

Its front end derives each fact about a source assertion once and passes
it on.  Each source's lengths are inferred and checked once, and the check
returns the segment widths that the qubit count and the tensor alignment
read.  The fresh-name pool is the union of the source length maps
(``infer_lengths`` sizes every name or raises), and the canonical length
map is the sources' renamed.  A canonical form's lengths are checked for
being inferable only when one of its kets leaves a variable to be sized by
position (``ast.KetScope.sized``).  The occurrence intervals are walked
once, for the alignment check and the partition.

A slice's cases are written straight into their union, one levelwise
automaton each, by :func:`build_setq_lsta` in one pass.  Slices come as
runs of equal qubit columns (``qubit_reorder.SliceRun``), and each run's
cases are built or looked up once, as one piece.  A component's slice
tensor is ``tensor_chain`` of its pieces, each repeated as often as its
run is long in a list made by ``[piece] * length``.  With the qubit
permutation made of one ``range`` per slot, no Python loop in translation
runs once per qubit.  A projected set is the tensor of its slot
components' slice tensors.  Only a set of several components builds a
``TAG`` automaton: ``filter_f`` of each component, their tensor, then
``filter_tau``.  A set of one component, nearly every set in practice,
crosses once: its slice tensor's leaves map straight into ``COMPLEX`` by
``filter_tau(filter_f(e), amplitudes)``, since the tensor of one automaton
is that automaton.
Neither construction nor composition re-checks its results: ``validate``
runs once on each finished assertion automaton.  A call keeps one table:
slice automata keyed by their member states, and compositions and crossings
keyed by operation, operand ids in order and any value read besides them
(``filter_tau``'s amplitudes; a slice tensor's run lengths, under the
operation ``"slices"``, apart from the chains keyed ``"tensor"``).  What
recurs across positions, sets or assertions is built once; an entry stores
its operands, so no id it is keyed by is reused while the call runs.

:func:`translate` runs with the cyclic collector paused, as one bulk
build: the tens of thousands of transition records it makes live until it
returns, so collections during the call would walk them again and again
and find no garbage.  Reference counting still frees what the call drops,
and the first collection after it returns sees every survivor.  A spec of
more than ``ast.MAX_QUBITS`` qubits is refused before its powers are
expanded.
"""

from __future__ import annotations

import gc
import itertools
import time
from dataclasses import dataclass
from typing import Sequence

from . import ast as A
from .amplitude import (
    COMPLEX,
    POLY_ZERO,
    TAG,
    VALUATION,
    AmplitudePoly,
    Semiring,
    ValAmp,
)
from .errors import EmptyStateError, InternalError
from .lsta import (
    Internal,
    Leaf,
    Lsta,
    StateVector,
    map_leaves,
    n_leaves,
    tensor_chain,
    union_all,
    validate,
)
from .preprocess import (
    AlignedSpec,
    FreshNamer,
    GlobalPartition,
    _check_constrained_vars_occur,
    canonicalize,
    constant_abstraction,
    tensor_alignment_check,
    variable_alignment_check,
)
from .qubit_reorder import expand_qubit_slices
from .var_reorder import (
    SlotOrder,
    build_dependency_graph,
    compute_slot_order,
    project_setP,
)

_ONE = frozenset({1})


# ---------------------------------------------------------------------------
# Levelwise construction of a set's member automata, written into their union.
# ---------------------------------------------------------------------------


def _emit_member(psi: StateVector, semiring: Semiring, off: int,
                 internal: list[Internal], leaves: list[Leaf]
                 ) -> tuple[int, int, int]:
    """Append all but the root transition of the automaton of ``psi``.

    Ids start at ``off`` and the root takes none; returns the root's
    children and one past the largest id.  A nonzero state gets one leaf
    state per nonzero basis string, one active state per proper prefix, and
    a per-level sink chain for the missing subtrees (none under full
    support).  The zero vector, a set member when a summation is empty, is
    one sink chain.  Either way ``|Δ| ≤ (N+1)(n+1)`` for ``N`` nonzero
    amplitudes over ``n`` qubits.

    A single nonzero entry ``s`` over ``n ≥ 1`` qubits, the common member
    of a slice, is never full, and its ids follow by arithmetic: the leaf
    is ``off`` and the sink leaf ``off+1``; depth ``d`` has its sink at
    ``off+2(n-d)`` and its path state one above, whose child on side
    ``s[d]`` is the path one level down and the other the sink; the ids end
    at ``off+2n``.  These are the ids the general case gives it.
    """
    n = psi.n
    start = len(internal) + len(leaves)
    new = tuple.__new__
    if psi.is_zero:
        internal += [new(Internal, (k, _ONE, k + 1, k + 1)) for k in range(off, off + n - 1)]
        leaves.append(new(Leaf, (off + n - 1, _ONE, semiring.zero)))
        left, right, end = off, off, off + n
    elif len(psi.entries) == 1:
        ((s, amp),) = psi.entries
        leaves += [new(Leaf, (off, _ONE, amp)),
                   new(Leaf, (off + 1, _ONE, semiring.zero))]
        path, sink = off, off + 1
        for depth in range(n - 1, 0, -1):
            k = off + 2 * (n - depth)
            internal += [new(Internal, (k, _ONE, sink, sink)),
                         new(Internal, (k + 1, _ONE, sink, path)
                             if s[depth] == "1" else (k + 1, _ONE, path, sink))]
            path, sink = k + 1, k
        end = off + 2 * n
        left, right = (sink, path) if s[0] == "1" else (path, sink)
    else:
        full = len(psi.entries) == (1 << n)
        ids = itertools.count(off)
        level = {s: next(ids) for s, _amp in psi.entries}
        leaves += [new(Leaf, (level[s], _ONE, amp)) for s, amp in psi.entries]
        sink: int | None = None
        if not full:
            sink = next(ids)
            leaves.append(new(Leaf, (sink, _ONE, semiring.zero)))
        for depth in range(n - 1, 0, -1):
            prev, prev_sink = level, sink
            level = {}
            if not full:
                sink = next(ids)
                internal.append(new(Internal, (sink, _ONE, prev_sink, prev_sink)))
            for x in sorted({p[:depth] for p in prev}):
                level[x] = next(ids)
                internal.append(new(Internal, (
                    level[x], _ONE,
                    prev.get(x + "0", prev_sink),
                    prev.get(x + "1", prev_sink),
                )))
        left, right, end = level.get("0", sink), level.get("1", sink), next(ids)
    assert len(internal) + len(leaves) - start < (len(psi.entries) + 1) * (n + 1)
    return left, right, end


def build_state_lsta(psi: StateVector, semiring: Semiring) -> Lsta:
    """Build the compact levelwise automaton accepting exactly ``psi``."""
    if psi.is_zero:
        raise EmptyStateError()
    return build_setq_lsta([psi], semiring)


def build_setq_lsta(states: Sequence[StateVector], semiring: Semiring) -> Lsta:
    """Union of levelwise automata, one per member state, built in one pass.

    The members are written straight into the union at running offsets,
    and the root, the last id, re-emits their root transitions with choices
    ``{1}..{k}``: what ``union_all`` builds of the member automata.
    """
    if not states:
        raise EmptyStateError()
    if len({psi.n for psi in states}) != 1:
        raise InternalError("set members have differing qubit counts")
    if states[0].n < 1:
        raise InternalError("cannot build an automaton over zero qubits")
    internal: list[Internal] = []
    leaves: list[Leaf] = []
    children: list[tuple[int, int]] = []
    end = 0
    for psi in states:
        left, right, end = _emit_member(psi, semiring, end, internal, leaves)
        children.append((left, right))
    new = tuple.__new__
    internal += [new(Internal, (end, frozenset((k,)), left, right))
                 for k, (left, right) in enumerate(children, start=1)]
    return Lsta(semiring, range(end + 1), end, tuple(internal), tuple(leaves))


# ---------------------------------------------------------------------------
# Amplitude-domain crossings.
# ---------------------------------------------------------------------------


def filter_f(e: ValAmp) -> frozenset[int]:
    """Keep the tags whose inequality valuation is all-true."""
    return frozenset(m for m, bools in e.entries if all(bools))


def filter_tau(e: frozenset,
               amplitudes: Sequence[AmplitudePoly]) -> AmplitudePoly:
    """Sum the amplitudes of the surviving tags; tag ``m`` reads ``amplitudes[m - 1]``.

    The sum starts from the first tag's amplitude, which ``POLY_ZERO`` plus
    it equals; no tag leaves ``POLY_ZERO``."""
    out = None
    for m in sorted(e):
        if not 1 <= m <= len(amplitudes):
            raise InternalError(
                f"tag {m} names no term of a {len(amplitudes)}-term set")
        out = amplitudes[m - 1] if out is None else out + amplitudes[m - 1]
    return POLY_ZERO if out is None else out


# ---------------------------------------------------------------------------
# Qubit permutation realized by the reordering stages.
# ---------------------------------------------------------------------------


def qubit_permutation(partition: GlobalPartition,
                      orders: Sequence[SlotOrder]) -> tuple[int, ...]:
    """Map each output qubit position to the source position it reads.

    Component by component, the k-th qubit of every slot in the component
    is emitted before the (k+1)-th of any; entry ``new_to_old[k-1]`` is the
    1-based source position feeding output position ``k``.  A component's
    entries are its slots' ranges of source positions, interleaved by
    ``zip``, so no Python code runs once per qubit.
    """
    new_to_old: list[int] = []
    for seg, order in enumerate(orders):
        slots = {sl.index: sl for sl in partition.segments[seg]}
        for comp in order:
            spans = [range(slots[i].start, slots[i].start + slots[i].width) for i in comp]
            widths = set(map(len, spans))
            if len(widths) != 1:
                raise InternalError(
                    f"slot component {comp} mixes widths {sorted(widths)}")
            # The slots' ranges interleaved; a slot alone is its range.
            new_to_old += (spans[0] if len(spans) == 1
                           else itertools.chain.from_iterable(zip(*spans)))
    if sorted(new_to_old) != list(range(1, partition.total_qubits + 1)):
        raise InternalError("qubit reordering is not a permutation")
    return tuple(new_to_old)


# ---------------------------------------------------------------------------
# The full pipeline.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AssertionResult:
    """One translated assertion: the automaton plus its side condition."""

    automaton: Lsta
    constraint: object | None
    stats: dict


@dataclass(frozen=True)
class TranslationResult:
    """The translated assertions, with what their layout was built from:
    each source assertion's inferred variable lengths, the aligned form and
    the slot orders, and the qubit permutation they realize."""

    assertions: tuple[AssertionResult, ...]
    source_lengths: tuple[A.LengthMap, ...]
    aligned: AlignedSpec
    orders: tuple[SlotOrder, ...]
    permutation: tuple[int, ...]
    seconds: float

    @property
    def qubits(self) -> int:
        return self.aligned.partition.total_qubits


def measure(ast: A.AssertionAst, qubits: int, automaton: Lsta,
            peaks: dict[str, int], seconds: float) -> dict:
    """Count the structural size parameters and the realized sizes.

    ``ast`` is a source assertion; the counts are of its canonical form,
    where each segment is ``power`` segments and each ket a set of its own.
    """
    n_term = n_vc = n_union = 0
    amplitudes = set()
    for seg in ast.segments:
        for sq in seg.base.alternatives:
            terms = list(sq.terms())
            amplitudes.update(t.amplitude for t in terms)
            n_union += seg.power * len(sq.diracs)
            n_term += seg.power * len(terms)
            n_vc += seg.power * (len(sq.diracs) * len(sq.predicate)
                                 + sum(len(t.sum_constraints) for t in terms))
    stats = {
        "qubits": qubits,
        "n_term": n_term,
        "n_vc": n_vc,
        "n_union": n_union,
        "n_amp": len(amplitudes),
        "size": automaton.size,
        "n_leaves": n_leaves(automaton),
        "seconds": seconds,
    }
    stats.update({f"size_{k}_max": v for k, v in peaks.items()})
    return stats


def translate(asts: Sequence[A.AssertionAst]) -> TranslationResult:
    """Translate assertions sharing one qubit layout into automata.

    The cyclic collector is paused for the call and resumed on return or
    on an error, unless the caller had paused it already.
    """
    running = gc.isenabled()
    gc.disable()
    try:
        return _translate(asts)
    finally:
        if running:
            gc.enable()


def _translate(asts: Sequence[A.AssertionAst]) -> TranslationResult:
    t0 = time.perf_counter()
    asts = list(asts)
    if not asts:
        raise InternalError("translation requires at least one assertion")

    source_lengths, source_widths = [], []
    for ast in asts:
        source_lengths.append(A.infer_lengths(ast))
        source_widths.append(A.check_well_formed(ast, source_lengths[-1]))
        # Checked on the source, one ket at a time, so errors name the
        # variables as written.
        for sq in ast.setqs():
            _check_constrained_vars_occur(sq)
    # After every exit-2 check, before canonicalize expands any power.
    for ast, widths in zip(asts, source_widths):
        A.check_qubit_count(ast, widths)

    # The names the sources use: infer_lengths sizes each or raises.
    namer = FreshNamer(set().union(*source_lengths))
    canon: list[A.AssertionAst] = []
    lengths: A.LengthMap = {}
    for ast, source in zip(asts, source_lengths):
        origin: dict[str, str] = {}
        canon.append(canonicalize(ast, namer, origin))
        lengths.update(zip(origin, map(source.__getitem__, origin.values())))
    for ast, c in zip(asts, canon):
        if not all(ket.sized for sq in ast.setqs() for ket in sq.kets):
            A.check_inferable(c)

    seg_lengths = tensor_alignment_check([
        [w for w, seg in zip(widths, ast.segments) for _ in range(seg.power)]
        for ast, widths in zip(asts, source_widths)])
    intervals = variable_alignment_check(canon, lengths, seg_lengths)
    aligned = constant_abstraction(canon, lengths, seg_lengths, namer, intervals)

    slot_ids = _slot_ids(aligned.partition)
    orders = tuple(
        compute_slot_order(build_dependency_graph(
            [sp for a in aligned.assertions for sp in a.segments[s]], ids))
        for s, ids in enumerate(slot_ids))
    permutation = qubit_permutation(aligned.partition, orders)

    # (operands, result) entries.  Compositions only read their operands, so
    # a result serves wherever the same objects recur in the same order (a
    # union numbers root choices in piece order); the stored operands keep
    # their ids from reuse.  Slice automata are keyed by their member states.
    table: dict[tuple, tuple] = {}

    def shared(op, operands, make, *values):
        key = (op, *map(id, operands), *values)
        hit = table.get(key)
        if hit is None:
            hit = table[key] = (operands, make())
        return hit[1]

    results: list[AssertionResult] = []
    for idx, assertion in enumerate(aligned.assertions):
        ta = time.perf_counter()
        peaks = {"slice": 0, "setv": 0, "setp": 0, "segment": 0}
        n_slices = n_built = 0
        seg_autos: list[Lsta] = []
        for s, ids in enumerate(slot_ids):
            alt_autos: list[Lsta] = []
            for sp in assertion.segments[s]:
                mq_autos: list[Lsta] = []
                for v in project_setP(sp, orders[s], ids):
                    _table, runs = expand_qubit_slices(v, aligned.lengths)
                    # One piece per run; the chain repeats it as often as
                    # the run is long.
                    pieces: list[Lsta] = []
                    lengths: list[int] = []
                    chained: list[Lsta] = []
                    for _first, length, cases in runs:
                        key = ("slice", tuple([c.state for c in cases]))
                        hit = table.get(key)
                        if hit is None:
                            hit = table[key] = ((), build_setq_lsta(key[1], VALUATION))
                            n_built += 1
                        pieces.append(hit[1])
                        lengths.append(length)
                        chained += [hit[1]] * length
                    n_slices += len(chained)
                    # Keyed by (piece, length) runs, apart from the chains
                    # keyed "tensor".
                    mq, peak = shared("slices", pieces, lambda: tensor_chain(chained), *lengths)
                    peaks["slice"] = max(peaks["slice"], peak)
                    # A leaf map keeps every transition: filter_f of mq has
                    # its size.
                    peaks["setv"] = max(peaks["setv"], mq.size)
                    mq_autos.append(mq)
                amplitudes = tuple(t.amplitude for t in sp.terms)
                if len(mq_autos) == 1:
                    # The tensor of one TAG automaton is that automaton, so
                    # both crossings are one leaf map.
                    mp = shared("filter", mq_autos, lambda: map_leaves(
                        mq_autos[0], lambda e: filter_tau(filter_f(e), amplitudes),
                        COMPLEX), *amplitudes)
                else:
                    mv_autos = [shared("filter_f", (mq,), lambda: map_leaves(mq, filter_f, TAG))
                                for mq in mq_autos]
                    mt = shared("tensor", mv_autos, lambda: tensor_chain(mv_autos))[0]
                    mp = shared("filter_tau", (mt,), lambda: map_leaves(
                        mt, lambda e: filter_tau(e, amplitudes), COMPLEX), *amplitudes)
                peaks["setp"] = max(peaks["setp"], mp.size)
                alt_autos.append(mp)
            seg_auto = shared("union", alt_autos, lambda: union_all(alt_autos))
            peaks["segment"] = max(peaks["segment"], seg_auto.size)
            seg_autos.append(seg_auto)
        final = shared("tensor", seg_autos, lambda: tensor_chain(seg_autos))[0]
        validate(final)
        stats = measure(asts[idx], aligned.partition.total_qubits, final,
                        peaks, time.perf_counter() - ta)
        stats.update(slices=n_slices, slices_built=n_built)
        results.append(
            AssertionResult(final, canon[idx].constraint, stats))

    return TranslationResult(
        tuple(results), tuple(source_lengths), aligned, orders, permutation,
        time.perf_counter() - t0,
    )


def _slot_ids(partition: GlobalPartition) -> list[tuple[int, ...]]:
    """The slot indices of each segment, in slot order."""
    return [tuple(sl.index for sl in seg) for seg in partition.segments]


def slice_expansions(result: TranslationResult):
    """Yield ``(assertion, segment, setV, table, runs)`` per projected set.

    A translation keeps no slice expansions; they are rebuilt here from
    ``result.aligned`` and ``result.orders`` by the calls :func:`translate`
    makes, in its order.  ``runs`` is the tuple of ``SliceRun`` records
    that ``expand_qubit_slices`` returns; ``qubit_reorder.render_slices``
    spells them out one slice per qubit.
    """
    aligned = result.aligned
    slot_ids = _slot_ids(aligned.partition)
    for idx, assertion in enumerate(aligned.assertions):
        for s, ids in enumerate(slot_ids):
            for sp in assertion.segments[s]:
                for v in project_setP(sp, result.orders[s], ids):
                    table, runs = expand_qubit_slices(v, aligned.lengths)
                    yield idx, s, v, table, tuple(runs)


# ---------------------------------------------------------------------------
# Reports.
# ---------------------------------------------------------------------------


def render_stats(result: TranslationResult) -> str:
    """Flat key/value report, one line per measured parameter."""
    lines = []
    for i, ar in enumerate(result.assertions):
        for k, v in sorted(ar.stats.items()):
            if isinstance(v, float):
                v = f"{v:.6f}"
            lines.append(f"assertion{i}.{k} {v}")
    lines.append("permutation " + ",".join(map(str, result.permutation)))
    lines.append(f"seconds {result.seconds:.6f}")
    return "\n".join(lines) + "\n"


def render_orders(result: TranslationResult) -> str:
    """Slot layout, component order, and the realized qubit permutation."""
    lines = []
    for s, order in enumerate(result.orders):
        slots = result.aligned.partition.segments[s]
        span = " ".join(
            f"slot{sl.index}=[{sl.start}..{sl.end - 1}]" for sl in slots)
        comps = " ".join(
            "{" + ",".join(map(str, comp)) + "}" for comp in order)
        lines.append(f"segment {s + 1}: {span}")
        lines.append(f"segment {s + 1} order: {comps}")
    lines.append("new_to_old " + ",".join(map(str, result.permutation)))
    return "\n".join(lines) + "\n"
