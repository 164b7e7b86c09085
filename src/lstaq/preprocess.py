"""Preprocessing: rewrite assertions into slot-aligned constant-free form.

Four steps run in order over a whole translation job (all assertions that
must share one qubit ordering):

1. canonicalize    -- expand tensor powers, split multi-state sets into
                      unions of single-state sets, alpha-rename every scope.
2. tensor_alignment_check    -- equal segment counts and per-segment widths.
3. variable_alignment_check  -- variable intervals pairwise disjoint or equal.
4. constant_abstraction      -- compute the global slot partition; replace
                                constant bits by fresh summation variables
                                bound with equality constraints.

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


def _sub_atom(atom: A.Atom, mapping: dict[str, str]) -> A.Atom:
    if isinstance(atom, A.Var):
        return A.Var(mapping.get(atom.name, atom.name))
    if isinstance(atom, A.Compl):
        return A.Compl(mapping.get(atom.name, atom.name))
    return atom


def _sub_varcon(c: A.VarCon, mapping: dict[str, str]) -> A.VarCon:
    if isinstance(c, A.Len):
        return A.Len(mapping.get(c.var, c.var), c.n)
    if isinstance(c, A.NeqVar):
        return A.NeqVar(mapping.get(c.left, c.left), mapping.get(c.right, c.right))
    if isinstance(c, A.NeqConst):
        return A.NeqConst(mapping.get(c.var, c.var), c.bits)
    return A.EqConst(mapping.get(c.var, c.var), c.bits)


def _rename_setq(sq: A.SetQ, namer: FreshNamer) -> A.SetQ:
    (dirac,) = sq.diracs
    outer = A.outer_vars(sq.predicate, dirac)
    omap = {v: namer.fresh(v) for v in outer}
    terms = []
    for term in dirac:
        tmap = dict(omap)
        tmap.update({v: namer.fresh(v) for v in A.inner_vars(term, omap)})
        terms.append(A.Term(
            term.amplitude,
            tuple(_sub_varcon(c, tmap) for c in term.sum_constraints),
            tuple(_sub_atom(a, tmap) for a in term.pattern),
        ))
    predicate = tuple(_sub_varcon(c, omap) for c in sq.predicate)
    return A.SetQ((tuple(terms),), predicate)


def canonicalize(ast: A.AssertionAst, namer: FreshNamer | None = None) -> A.AssertionAst:
    """Expand powers, split multi-state sets, and alpha-rename all scopes.

    The denoted state set is unchanged.  Copies produced by power expansion
    are renamed independently, which is exactly the independence the tensor
    power means.
    """
    namer = namer or FreshNamer.for_asts([ast])
    segments = []
    for pset in ast.segments:
        for _ in range(pset.power):
            alts = []
            for sq in pset.base.alternatives:
                for dirac in sq.diracs:
                    alts.append(_rename_setq(A.SetQ((dirac,), sq.predicate), namer))
            segments.append(A.PSet(A.USet(tuple(alts)), 1))
    return A.AssertionAst(tuple(segments), ast.constraint)


# ---------------------------------------------------------------------------
# Step 2: tensor alignment.
# ---------------------------------------------------------------------------


def tensor_alignment_check(asts, lengths: A.LengthMap) -> list[int]:
    """Check segment structure across assertions; return per-segment widths."""
    counts = sorted({len(ast.segments) for ast in asts})
    if len(counts) > 1:
        raise SegmentCountMismatchError(counts[0], counts[1])
    seg_lengths: list[int] = []
    for s in range(counts[0]):
        widths = sorted({
            A.pattern_width(term.pattern, lengths)
            for ast in asts for term in ast.segments[s].terms()
        })
        if len(widths) > 1:
            raise SegmentLengthMismatchError(s + 1, widths[0], widths[1])
        seg_lengths.append(widths[0])
    return seg_lengths


# ---------------------------------------------------------------------------
# Step 3: variable alignment.
# ---------------------------------------------------------------------------


def _segment_starts(seg_lengths: list[int]) -> list[int]:
    """The 1-based first qubit of each segment, then one past the last."""
    return list(itertools.accumulate(seg_lengths, initial=1))


def _occurrence_intervals(asts, lengths: A.LengthMap, starts: list[int]):
    """Yield (var, start, end, segment) for every variable occurrence.

    Positions are global and 1-based; constants advance the cursor but
    produce no interval.
    """
    for ast in asts:
        for s, pset in enumerate(ast.segments):
            for term in pset.terms():
                pos = starts[s]
                for atom in term.pattern:
                    if isinstance(atom, A.Const):
                        pos += len(atom.bits)
                    else:
                        w = lengths[atom.name]
                        yield atom.name, pos, pos + w, s
                        pos += w
                if pos != starts[s + 1]:
                    raise InternalError(
                        f"segment {s + 1} pattern width drifted")


def variable_alignment_check(asts, lengths: A.LengthMap,
                             seg_lengths: list[int]) -> None:
    """Require all occurrence intervals to be pairwise disjoint or identical."""
    intervals: dict[tuple[int, int], str] = {}
    for var, start, end, _seg in _occurrence_intervals(
            asts, lengths, _segment_starts(seg_lengths)):
        intervals.setdefault((start, end), var)
    spans = sorted(intervals)
    for (a, b), (c, d) in zip(spans, spans[1:]):
        if c < b:
            raise VariableOverlapError(intervals[(a, b)], (a, b),
                                       intervals[(c, d)], (c, d))


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


def _build_partition(asts, lengths, starts: list[int]) -> GlobalPartition:
    """Cut each segment at the ends of its variable intervals.

    The intervals are pairwise disjoint or equal (variable alignment), so
    the cuts give every interval one slot and every gap between them one.
    """
    cuts = [{starts[s], starts[s + 1]} for s in range(len(starts) - 1)]
    for _v, start, end, s in _occurrence_intervals(asts, lengths, starts):
        cuts[s].update((start, end))
    index = itertools.count(1)
    segments = []
    for points in cuts:
        points = sorted(points)
        segments.append(tuple(Slot(next(index), a, b - a)
                              for a, b in zip(points, points[1:])))
    return GlobalPartition(tuple(segments))


def _abstract_term(term: A.Term, seg_slots: tuple[Slot, ...], seg_start: int,
                   lengths: dict[str, int], namer: FreshNamer):
    """Rewrite one term's pattern into one atom per slot."""
    atoms: list[A.Atom] = []
    extra: list[A.VarCon] = []
    by_start = {s.start: s for s in seg_slots}
    pos = seg_start
    pending = ""  # accumulated constant bits ending just before pos

    def flush() -> None:
        nonlocal pending
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
    for atom in term.pattern:
        if isinstance(atom, A.Const):
            pending += atom.bits
            pos += len(atom.bits)
            continue
        flush()
        w = lengths[atom.name]
        slot = by_start.get(pos)
        if slot is None or slot.width != w:
            raise InternalError(
                f"variable '{atom.name}' does not align with its slot")
        atoms.append(atom)
        pos += w
    flush()
    return A.Term(term.amplitude, term.sum_constraints + tuple(extra),
                  tuple(atoms))


def _check_constrained_vars_occur(sq: A.SetQ) -> None:
    """Every variable that ``sq`` constrains occurs in one of its patterns."""
    in_pattern = set().union(*map(A.pattern_vars, sq.terms()))
    for c in sq.constraints():
        for v in A.varcon_vars(c):
            if v not in in_pattern:
                raise ScopeError(f"variable '{v}' is constrained but "
                                 "never appears in a pattern")


def constant_abstraction(asts, lengths: A.LengthMap, seg_lengths: list[int],
                         namer: FreshNamer) -> AlignedSpec:
    """Compute the global partition and rewrite every set into a SetP."""
    starts = _segment_starts(seg_lengths)
    partition = _build_partition(asts, lengths, starts)
    out_lengths = dict(lengths)
    uid = 0
    assertions = []
    for ast in asts:
        segments = []
        for s, pset in enumerate(ast.segments):
            seg_slots = partition.segments[s]
            alts = []
            for sq in pset.base.alternatives:
                (dirac,) = sq.diracs
                terms = tuple(
                    _abstract_term(t, seg_slots, starts[s], out_lengths, namer)
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
