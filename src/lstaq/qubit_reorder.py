"""Qubit-level expansion of tagged sets into per-qubit concrete states.

A string inequality ``u != v`` is the disjunction of the per-qubit
inequalities ``u_j != v_j``, so each qubit position can be handled in its
own construct as long as the satisfaction status accumulates across
positions.  The valuation-dependent amplitudes carry that status: the
``j``-th slice replaces a term's tag with a singleton family whose boolean
entries record which inequality constraints the ``j``-th bits already
satisfy; tensoring slices later folds these records with pointwise OR.

Variables mentioned in the set predicate (or free in a pattern) index the
union of concrete states; variables bound by a term's summation expand
inside the state.  ``ast.outer_vars`` and ``ast.inner_vars`` own that rule
and its first-occurrence order, which fixes the order of a slice's cases.
Pattern atoms are ``ast.Var`` and ``ast.Compl``; a complemented one emits
the flipped bit.  Equality bindings against constants are hard local
filters and never enter the constraint records.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import ast as A
from .amplitude import VALUATION, ValAmp, valamp_add
from .errors import InternalError, LimitExceededError
from .lsta import StateVector
from .var_reorder import SetV

# Assignments one distinct slice may enumerate: 2^|outer| cases, each with
# 2^|inner| per term.  A 1-bit `!=` chain over 16 variables is at the limit.
MAX_SLICE_ASSIGNMENTS = 1 << 16


@dataclass(frozen=True)
class ConstraintTable:
    """Ordered inequality lists per term; ValAmp booleans align with these."""

    phis: dict[int, tuple[A.VarCon, ...]]


@dataclass(frozen=True)
class SliceCase:
    assignment: tuple[tuple[str, int], ...]
    state: StateVector


@dataclass(frozen=True)
class QubitSlice:
    index: int
    cases: tuple[SliceCase, ...]


def _is_inequality(c: A.VarCon) -> bool:
    return isinstance(c, (A.NeqVar, A.NeqConst))


def constraint_table(v: SetV) -> ConstraintTable:
    pred = tuple(c for c in v.predicate if _is_inequality(c))
    return ConstraintTable({
        t.tag: pred + tuple(c for c in t.sum_constraints if _is_inequality(c))
        for t in v.terms
    })


def _bit(c: str) -> int:
    return 1 if c == "1" else 0


def _holds_eq(c: A.EqConst, phi: dict[str, int], j: int) -> bool:
    return phi[c.var] == _bit(c.bits[j - 1])


def _truth(c: A.VarCon, phi: dict[str, int], j: int) -> bool:
    if isinstance(c, A.NeqVar):
        return phi[c.left] != phi[c.right]
    if isinstance(c, A.NeqConst):
        return phi[c.var] != _bit(c.bits[j - 1])
    raise InternalError(f"{c} is not an inequality constraint")


def expand_qubit_slices(v: SetV, lengths: dict[str, int]):
    """Expand ``v`` into per-qubit slices of concrete valuation states.

    Returns ``(table, slices)`` where the table fixes each term's ordered
    inequality list and every slice holds one concrete state per admissible
    assignment of the union-indexing variables.

    A slice depends on its qubit index ``j`` only through the constant bits
    that the ``EqConst`` and ``NeqConst`` constraints read at ``j``.  Slices
    whose columns of those bits are equal share one ``cases`` tuple, which
    is computed once.  A slice that would enumerate more than
    ``MAX_SLICE_ASSIGNMENTS`` assignments raises ``LimitExceededError``
    before any case is built.
    """
    widths = {lengths[a.name] for t in v.terms for a in t.pattern}
    if len(widths) != 1:
        raise InternalError(
            f"slot component mixes qubit lengths {sorted(widths)}")
    ell = widths.pop()
    n_slot = len(v.slots)
    table = constraint_table(v)
    outer = A.outer_vars(v.predicate, v.terms)
    pred_eq = [c for c in v.predicate if isinstance(c, A.EqConst)]
    terms = [(t, A.inner_vars(t, outer),
              [c for c in t.sum_constraints if isinstance(c, A.EqConst)])
             for t in v.terms]
    count = (1 << len(outer)) * sum(1 << len(inner) for _t, inner, _eq in terms)
    if count > MAX_SLICE_ASSIGNMENTS:
        raise LimitExceededError(MAX_SLICE_ASSIGNMENTS, (
            f"a qubit slice needs {count} assignments, "
            f"over the limit of {MAX_SLICE_ASSIGNMENTS}"))
    constants = [c.bits for c in pred_eq]
    constants += [c.bits for _t, _inner, term_eq in terms for c in term_eq]
    constants += [c.bits for phi in table.phis.values() for c in phi
                  if isinstance(c, A.NeqConst)]

    by_column: dict[tuple[str, ...], tuple[SliceCase, ...]] = {}
    slices: list[QubitSlice] = []
    for j in range(1, ell + 1):
        column = tuple(bits[j - 1] for bits in constants)
        if column in by_column:
            slices.append(QubitSlice(j, by_column[column]))
            continue
        cases: list[SliceCase] = []
        for bits in itertools.product((0, 1), repeat=len(outer)):
            sigma = dict(zip(outer, bits))
            if not all(_holds_eq(c, sigma, j) for c in pred_eq):
                continue
            amp: dict[str, ValAmp] = {}
            for t, inner, term_eq in terms:
                for ibits in itertools.product((0, 1), repeat=len(inner)):
                    phi = dict(sigma)
                    phi.update(zip(inner, ibits))
                    if not all(_holds_eq(c, phi, j) for c in term_eq):
                        continue
                    key = "".join(
                        str(phi[a.name] ^ isinstance(a, A.Compl))
                        for a in t.pattern
                    )
                    d = ValAmp.of({
                        t.tag: tuple(_truth(c, phi, j)
                                     for c in table.phis[t.tag])
                    })
                    amp[key] = valamp_add(amp[key], d) if key in amp else d
            cases.append(SliceCase(
                tuple(zip(outer, bits)),
                StateVector.of(n_slot, amp, VALUATION),
            ))
        by_column[column] = tuple(cases)
        slices.append(QubitSlice(j, by_column[column]))
    return table, slices


def render_slices(v: SetV, table: ConstraintTable,
                  slices: list[QubitSlice]) -> str:
    """Debug text: one line per concrete state, tagged by its assignment."""
    from .parser import render_varcon

    lines = [f"setP {v.uid} component slots {list(v.slots)}"]
    for t in v.terms:
        phi = ", ".join(render_varcon(c) for c in table.phis[t.tag])
        lines.append(f"  phi_{t.tag} = [{phi}]")
    for sl in slices:
        lines.append(f"  slice {sl.index}:")
        for case in sl.cases:
            label = ", ".join(f"{name}_{sl.index}={b}"
                              for name, b in case.assignment)
            lines.append(f"    case {label or '-'}: {case.state}")
    return "\n".join(lines) + "\n"
