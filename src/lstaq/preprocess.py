"""Preprocessing: rewrite assertions into slot-aligned constant-free form.

Four steps run in order over a whole translation job (all assertions that
must share one qubit ordering).  Each reads what the source checks in
``build.translate`` derived rather than deriving it again:

1. canonicalize    -- expand tensor powers, split multi-state sets into
                      unions of single-state sets, alpha-rename every scope.
                      Each ket is renamed by its scope, ``SetQ.kets``, kept
                      on the source set; fresh names avoid a pool of the
                      names the sources' length maps hold, and ``origin``
                      records each fresh name's source name, so the
                      canonical length map is the sources' renamed.
2. tensor_alignment_check    -- equal segment counts and per-segment widths,
                                read from the widths ``ast.check_well_formed``
                                returned, one per canonical segment.
3. variable_alignment_check  -- variable intervals pairwise disjoint or
                                equal; returns the intervals, walked once.
4. constant_abstraction      -- cut the global slot partition at those
                                intervals; replace constant bits by fresh
                                summation variables bound with equality
                                constraints.

The output patterns hold one ``ast.Var`` or ``ast.Compl`` per slot, with
fresh ``c`` variables in place of constant runs, which is the shape the
slot-reordering stage expects.  Renaming follows ``ast.outer_vars`` and
``ast.inner_vars``, which own the scoping rule and the first-occurrence
order that decides the fresh names.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import ast as A
from .errors import (
    InternalError,
    ScopeError,
    SegmentCountMismatchError,
    SegmentLengthMismatchError,
    VariableOverlapError,
)


class FreshNamer:
    """Deterministic fresh-name source avoiding a fixed collision pool."""

    def __init__(self, used: set[str] | None = None) -> None:
        self.used = set(used or ())
        # The next number to try per base.  ``used`` only grows, so every
        # number below it is taken for good.
        self._next: dict[str, int] = {}

    @classmethod
    def for_asts(cls, asts) -> "FreshNamer":
        used: set[str] = set()
        for ast in asts:
            for sq in ast.setqs():
                for c in sq.constraints():
                    used.update(A.varcon_vars(c))
            for term in ast.terms():
                used |= A.pattern_vars(term)
        return cls(used)

    def fresh(self, base: str) -> str:
        n = self._next.get(base, 0)
        while f"{base}{n}" in self.used:
            n += 1
        self._next[base] = n + 1
        name = f"{base}{n}"
        self.used.add(name)
        return name


# ---------------------------------------------------------------------------
# Step 1: canonicalization.
# ---------------------------------------------------------------------------


def _sub_varcon(c: A.VarCon, mapping: dict[str, str]) -> A.VarCon:
    kind = type(c)
    if kind is A.NeqVar:
        return A.NeqVar(mapping[c.left], mapping[c.right])
    if kind is A.Len:
        return A.Len(mapping[c.var], c.n)
    return kind(mapping[c.var], c.bits)


def _rename_ket(dirac: A.Dirac, predicate: tuple[A.VarCon, ...],
                scope: A.KetScope, namer: FreshNamer,
                origin: dict[str, str] | None) -> A.SetQ:
    """The set of one ket with the predicate, each scope's names fresh.
    The scope holds every name the ket uses."""
    omap = {v: namer.fresh(v) for v in scope.outer}
    if origin is not None:
        origin.update(zip(omap.values(), omap))
    terms = []
    for term, inner in zip(dirac, scope.inner):
        tmap = omap
        if inner:
            fresh = {v: namer.fresh(v) for v in inner}
            if origin is not None:
                origin.update(zip(fresh.values(), fresh))
            tmap = {**omap, **fresh}
        terms.append(A.Term(
            term.amplitude,
            tuple(_sub_varcon(c, tmap) for c in term.sum_constraints),
            tuple(a if type(a) is A.Const else type(a)(tmap[a.name])
                  for a in term.pattern),
        ))
    predicate = tuple(_sub_varcon(c, omap) for c in predicate)
    return A.SetQ((tuple(terms),), predicate)


def canonicalize(ast: A.AssertionAst, namer: FreshNamer | None = None,
                 origin: dict[str, str] | None = None) -> A.AssertionAst:
    """Expand powers, split multi-state sets, and alpha-rename all scopes.

    The denoted state set is unchanged.  Copies produced by power expansion
    are renamed independently, which is exactly the independence the tensor
    power means.  Each ket is renamed by its scope, ``SetQ.kets``, kept on
    the source set, so the copies of a power share it.  ``origin``, when
    given, receives each fresh name's source name.
    """
    namer = namer or FreshNamer.for_asts([ast])
    segments = []
    for pset in ast.segments:
        kets = [(dirac, sq.predicate, scope) for sq in pset.base.alternatives
                for dirac, scope in zip(sq.diracs, sq.kets)]
        for _ in range(pset.power):
            alts = tuple(_rename_ket(dirac, predicate, scope, namer, origin)
                         for dirac, predicate, scope in kets)
            segments.append(A.PSet(A.USet(alts), 1))
    return A.AssertionAst(tuple(segments), ast.constraint)


# ---------------------------------------------------------------------------
# Step 2: tensor alignment.
# ---------------------------------------------------------------------------


def tensor_alignment_check(widths) -> list[int]:
    """Check segment structure across assertions; return per-segment widths.

    ``widths`` holds each canonical assertion's segment widths.  A
    canonical segment is one copy of a well-formed source segment, whose
    kets all span its width, so one width per segment stands for them all.
    """
    counts = sorted({len(ws) for ws in widths})
    if len(counts) > 1:
        raise SegmentCountMismatchError(counts[0], counts[1])
    seg_lengths: list[int] = []
    for s, column in enumerate(zip(*widths)):
        found = sorted(set(column))
        if len(found) > 1:
            raise SegmentLengthMismatchError(s + 1, found[0], found[1])
        seg_lengths.append(found[0])
    return seg_lengths


# ---------------------------------------------------------------------------
# Step 3: variable alignment.
# ---------------------------------------------------------------------------


def _segment_starts(seg_lengths: list[int]) -> list[int]:
    """The 1-based first qubit of each segment, then one past the last."""
    return list(itertools.accumulate(seg_lengths, initial=1))


def _occurrence_intervals(asts, lengths: A.LengthMap, starts: list[int]
                          ) -> dict[tuple[int, int], tuple[str, int]]:
    """Map each variable occurrence's ``(start, end)`` to the variable and
    the segment of its first occurrence, in walk order.

    Positions are global and 1-based; constants advance the cursor but
    produce no interval.
    """
    intervals: dict[tuple[int, int], tuple[str, int]] = {}
    for ast in asts:
        for s, pset in enumerate(ast.segments):
            for term in pset.terms():
                pos = starts[s]
                for atom in term.pattern:
                    if isinstance(atom, A.Const):
                        pos += len(atom.bits)
                    else:
                        w = lengths[atom.name]
                        intervals.setdefault((pos, pos + w), (atom.name, s))
                        pos += w
                if pos != starts[s + 1]:
                    raise InternalError(
                        f"segment {s + 1} pattern width drifted")
    return intervals


def variable_alignment_check(asts, lengths: A.LengthMap,
                             seg_lengths: list[int]):
    """Require all occurrence intervals to be pairwise disjoint or identical.

    Returns the intervals, as :func:`_occurrence_intervals` maps them, for
    :func:`constant_abstraction` to cut the partition at.
    """
    intervals = _occurrence_intervals(asts, lengths, _segment_starts(seg_lengths))
    spans = sorted(intervals)
    for (a, b), (c, d) in zip(spans, spans[1:]):
        if c < b:
            raise VariableOverlapError(intervals[(a, b)][0], (a, b),
                                       intervals[(c, d)][0], (c, d))
    return intervals


# ---------------------------------------------------------------------------
# Step 4: constant abstraction.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Slot:
    """One interval of the global partition (1-based, half-open)."""

    index: int
    start: int
    width: int

    @property
    def end(self) -> int:
        return self.start + self.width


@dataclass(frozen=True)
class GlobalPartition:
    """The slots of each segment, numbered from 1 across all segments."""

    segments: tuple[tuple[Slot, ...], ...]

    @property
    def slots(self) -> tuple[Slot, ...]:
        return tuple(itertools.chain.from_iterable(self.segments))

    @property
    def total_qubits(self) -> int:
        return sum(sl.width for sl in self.slots)


@dataclass(frozen=True)
class SetP:
    """A single-state slot-aligned set; ``uid`` numbers it across the spec.

    Each term's pattern holds one ``ast.Var`` or ``ast.Compl`` per slot.
    """

    uid: int
    terms: tuple[A.Term, ...]
    predicate: tuple[A.VarCon, ...]

    def constraints(self):
        """The predicate, then each term's summation constraints."""
        yield from self.predicate
        for term in self.terms:
            yield from term.sum_constraints


@dataclass(frozen=True)
class AlignedAssertion:
    segments: tuple[tuple[SetP, ...], ...]


@dataclass(frozen=True)
class AlignedSpec:
    assertions: tuple[AlignedAssertion, ...]
    partition: GlobalPartition
    lengths: dict[str, int]


def _build_partition(intervals, starts: list[int]) -> GlobalPartition:
    """Cut each segment at the ends of its variable intervals.

    The intervals are pairwise disjoint or equal (variable alignment), so
    the cuts give every interval one slot and every gap between them one.
    """
    cuts = [{starts[s], starts[s + 1]} for s in range(len(starts) - 1)]
    for (start, end), (_v, s) in intervals.items():
        cuts[s].update((start, end))
    index = itertools.count(1)
    segments = []
    for points in cuts:
        points = sorted(points)
        segments.append(tuple(Slot(next(index), a, b - a)
                              for a, b in zip(points, points[1:])))
    return GlobalPartition(tuple(segments))


def _abstract_term(term: A.Term, by_start: dict[int, Slot], seg_start: int,
                   lengths: dict[str, int], namer: FreshNamer):
    """Rewrite one term's pattern into one atom per slot; ``by_start``
    holds the segment's slots by their first qubit."""
    atoms: list[A.Atom] = []
    extra: list[A.VarCon] = []
    pos = seg_start
    pending = ""  # accumulated constant bits ending just before pos
    for atom in (*term.pattern, None):
        if type(atom) is A.Const:
            pending += atom.bits
            pos += len(atom.bits)
            continue
        start = pos - len(pending)
        while pending:
            slot = by_start.get(start)
            if slot is None or slot.width > len(pending):
                raise InternalError("constant run does not align with slots")
            fresh = namer.fresh("c")
            lengths[fresh] = slot.width
            atoms.append(A.Var(fresh))
            extra.append(A.EqConst(fresh, pending[: slot.width]))
            pending = pending[slot.width:]
            start += slot.width
        if atom is None:
            break
        w = lengths[atom.name]
        slot = by_start.get(pos)
        if slot is None or slot.width != w:
            raise InternalError(
                f"variable '{atom.name}' does not align with its slot")
        atoms.append(atom)
        pos += w
    if not extra:
        return term
    return A.Term(term.amplitude, term.sum_constraints + tuple(extra),
                  tuple(atoms))


def _check_constrained_vars_occur(sq: A.SetQ) -> None:
    """Every variable that one of ``sq``'s kets constrains occurs in one of
    that ket's patterns (``KetScope.absent``)."""
    for ket in sq.kets:
        if ket.absent is not None:
            raise ScopeError(f"variable '{ket.absent}' is constrained but "
                             "never appears in a pattern")


def constant_abstraction(asts, lengths: A.LengthMap, seg_lengths: list[int],
                         namer: FreshNamer, intervals) -> AlignedSpec:
    """Compute the global partition at ``intervals``, as
    :func:`variable_alignment_check` returns them, and rewrite every set
    into a SetP."""
    starts = _segment_starts(seg_lengths)
    partition = _build_partition(intervals, starts)
    out_lengths = dict(lengths)
    uid = 0
    assertions = []
    for ast in asts:
        segments = []
        for s, pset in enumerate(ast.segments):
            by_start = {sl.start: sl for sl in partition.segments[s]}
            alts = []
            for sq in pset.base.alternatives:
                (dirac,) = sq.diracs
                terms = tuple(
                    _abstract_term(t, by_start, starts[s], out_lengths, namer)
                    for t in dirac
                )
                alts.append(SetP(uid, terms, sq.predicate))
                uid += 1
            segments.append(tuple(alts))
        assertions.append(AlignedAssertion(tuple(segments)))
    return AlignedSpec(tuple(assertions), partition, out_lengths)


# ---------------------------------------------------------------------------
# Debug rendering (for --dump-aligned).
# ---------------------------------------------------------------------------


def render_aligned(spec: AlignedSpec) -> str:
    from .parser import render_amplitude, render_ket, render_varcon

    lines = []
    for s, slots in enumerate(spec.partition.segments, start=1):
        for slot in slots:
            lines.append(
                f"// slot {slot.index}: qubits [{slot.start},{slot.end})"
                f" segment {s}"
            )
    for ai, assertion in enumerate(spec.assertions):
        parts = []
        for alts in assertion.segments:
            rendered = []
            for sp in alts:
                body = " + ".join(
                    render_amplitude(t.amplitude)
                    + (" sum[ " + ", ".join(render_varcon(c) for c in t.sum_constraints) + " ]"
                       if t.sum_constraints else " ")
                    + render_ket(t.pattern)
                    for t in sp.terms
                )
                if sp.predicate:
                    body += " : " + ", ".join(render_varcon(c) for c in sp.predicate)
                rendered.append("{ " + body + " }")
            parts.append(" \\/ ".join(rendered))
        lines.append(f"// assertion {ai}")
        lines.append(" (x) ".join(parts))
    return "\n".join(lines) + "\n"
