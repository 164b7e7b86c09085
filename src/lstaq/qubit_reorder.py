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

The expansion is compiled before any case is evaluated.  Each term's
pattern becomes the positions it reads in a case's text (``"01"``, the
outer bits, then the term's inner bits); each qubit column's filters and
inequalities become pairs of positions in it.  When every case has one
contributor, a term without inner words, a column's cases are evaluated by
columns: its key column, one truth column per inequality and its filter
masks are each one ``map`` over the column's texts, and the cases are
assembled from them with no Python work per case.  Cases with several
contributors, whose colliding keys must be added, are evaluated one text at
a time.  Neither path builds a per-case valuation dict or dispatches on
constraint kinds.
"""

from __future__ import annotations

import itertools
import operator
from typing import NamedTuple

from . import ast as A
from .amplitude import ValAmp, undefined_operator, valamp_add
from .errors import InternalError, LimitExceededError
from .lsta import StateVector
from .var_reorder import SetV

# Assignments one distinct slice may enumerate: 2^|outer| cases, each with
# 2^|inner| per term.  A 1-bit `!=` chain over 16 variables is at the limit.
MAX_SLICE_ASSIGNMENTS = 1 << 16

_FLIP = str.maketrans("01", "10")


class SliceCase(NamedTuple):
    assignment: tuple[tuple[str, int], ...]
    state: StateVector

    __add__ = __mul__ = __rmul__ = __lt__ = __le__ = __gt__ = __ge__ = undefined_operator


class QubitSlice(NamedTuple):
    index: int
    cases: tuple[SliceCase, ...]

    __add__ = __mul__ = __rmul__ = __lt__ = __le__ = __gt__ = __ge__ = undefined_operator


def _is_inequality(c: A.VarCon) -> bool:
    return isinstance(c, (A.NeqVar, A.NeqConst))


def constraint_table(v: SetV) -> dict[int, tuple[A.VarCon, ...]]:
    """Each term's ordered inequality list, by tag: the predicate's first,
    then the term's summation ones.  ValAmp booleans align with these."""
    pred = tuple(c for c in v.predicate if _is_inequality(c))
    return {t.tag: pred + tuple(c for c in t.sum_constraints if _is_inequality(c))
            for t in v.terms}


def _texts(k: int) -> tuple[str, ...]:
    return tuple(map("".join, itertools.product("01", repeat=k)))


# Widths up to 8 are built once: 511 texts in all.
_VALUES = tuple(map(_texts, range(9)))


def _values(k: int) -> tuple[str, ...]:
    """Every assignment of ``k`` bits in order, as a text."""
    return _VALUES[k] if k < len(_VALUES) else _texts(k)


def expand_qubit_slices(v: SetV, lengths: dict[str, int]):
    """Expand ``v`` into per-qubit slices of concrete valuation states.

    Returns ``(table, slices)``, where the table, :func:`constraint_table`,
    fixes each term's ordered inequality list by tag, and every slice holds
    one concrete state per admissible assignment of the union-indexing
    variables.

    A slice depends on its qubit index ``j`` only through the constant bits
    that the ``EqConst`` and ``NeqConst`` constraints read at ``j``.  Slices
    whose columns of those bits are equal share one ``cases`` tuple, which
    is computed once.  A slice that would enumerate more than
    ``MAX_SLICE_ASSIGNMENTS`` assignments raises ``LimitExceededError``
    before any case is built.  A column whose ``EqConst`` filters keep no
    assignment has one case, the zero vector with an empty assignment: no
    assignment satisfies the set, which then denotes the zero vector, as a
    contradictory ``!=`` does.

    The columns are the constants transposed once; a constant whose length
    is not the component's qubit length raises ``InternalError``.  Term
    patterns are compiled once per call, and filters and inequalities once
    per distinct column.  A case's text is ``"01" + outer bits +
    inner bits``, and every filter and inequality is a pair of positions in
    it, a constant bit reading position 0 or 1: a filter holds when its two
    characters are equal, an inequality when they differ.  A term's basis
    string picks its characters, by ``operator.itemgetter``, from the same
    text followed by its complement for ``~v`` atoms.

    A contributor is a term with one of its inner words, so each case has
    the same number of them.  With one, a column's cases are evaluated a
    column at a time (:func:`_by_columns`); with several, one case at a
    time, adding the records of colliding keys with ``valamp_add``.
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
    per_case = sum(1 << len(inner) for _t, inner, _eq in terms)
    count = (1 << len(outer)) * per_case
    if count > MAX_SLICE_ASSIGNMENTS:
        raise LimitExceededError(MAX_SLICE_ASSIGNMENTS, (
            f"a qubit slice needs {count} assignments, "
            f"over the limit of {MAX_SLICE_ASSIGNMENTS}"))
    constants = [c.bits for c in pred_eq]
    constants += [c.bits for _t, _inner, term_eq in terms for c in term_eq]
    constants += [c.bits for phi in table.values() for c in phi
                  if isinstance(c, A.NeqConst)]
    for bits in constants:
        if len(bits) != ell:
            raise InternalError(
                f"constant {bits} has {len(bits)} bits in a slot component of {ell} qubits")

    # Positions in a case's text; 0 and 1 hold the constant bits.
    at_outer = {name: i for i, name in enumerate(outer, 2)}
    compiled = []
    for t, inner, term_eq in terms:
        at = {**at_outer, **{name: i for i, name in
                             enumerate(inner, 2 + len(outer))}}
        width = 2 + len(outer) + len(inner)
        flips = [isinstance(a, A.Compl) for a in t.pattern]
        pattern = operator.itemgetter(*(
            at[a.name] + width * f for a, f in zip(t.pattern, flips)))
        compiled.append((t.tag, at, pattern, any(flips), term_eq,
                         table[t.tag], _values(len(inner))))
    assignments = list(zip(
        itertools.product(*[((name, 0), (name, 1)) for name in outer]),
        _values(len(outer))))

    new = tuple.__new__
    by_column: dict[tuple[str, ...], tuple[SliceCase, ...]] = {}
    slices: list[QubitSlice] = []
    columns = zip(*constants) if constants else itertools.repeat((), ell)
    for j, column in enumerate(columns, 1):
        if column in by_column:
            slices.append(new(QubitSlice, (j, by_column[column])))
            continue
        eqs = [(at_outer[c.var], int(c.bits[j - 1])) for c in pred_eq]
        programs = [
            (tag, pattern, compl, inner_words,
             [(at[c.var], int(c.bits[j - 1])) for c in term_eq],
             [(at[c.left], at[c.right]) if type(c) is A.NeqVar
              else (at[c.var], int(c.bits[j - 1])) for c in phi])
            for tag, at, pattern, compl, term_eq, phi, inner_words in compiled]
        if per_case == 1:
            ((tag, pattern, compl, _words, term_eqs, neqs),) = programs
            cases = _by_columns(assignments, eqs, n_slot, tag, pattern, compl, term_eqs, neqs)
        else:
            # Several contributors a case: each case is evaluated on its own
            # text, and colliding keys are added.
            cases = []
            for assignment, word in assignments:
                text = "01" + word
                if eqs and not all(text[p] == text[q] for p, q in eqs):
                    continue
                amp: dict[str, ValAmp] = {}
                for tag, pattern, compl, inner_words, term_eqs, neqs in programs:
                    for iword in inner_words:
                        chars = text + iword
                        if term_eqs and not all(chars[p] == chars[q] for p, q in term_eqs):
                            continue
                        if compl:
                            chars += chars.translate(_FLIP)
                        # One atom's itemgetter returns its character
                        # alone, which joins to itself.
                        key = "".join(pattern(chars))
                        d = new(ValAmp, (((tag, tuple([chars[p] != chars[q]
                                                       for p, q in neqs])),),))
                        amp[key] = valamp_add(amp[key], d) if key in amp else d
                # Each entry holds a term's record, so none is zero.
                cases.append(new(SliceCase, (assignment, new(StateVector, (
                    n_slot, tuple(sorted(amp.items())))))))
            cases = tuple(cases)
        if not cases:  # contradictory filters: the set is the zero vector
            cases = (new(SliceCase, ((), new(StateVector, (n_slot, ())))),)
        by_column[column] = cases
        slices.append(new(QubitSlice, (j, cases)))
    return table, slices


def _compared(texts: list[str], pairs, op) -> list:
    """One column over ``texts`` per pair of positions ``(p, q)``: whether
    ``op`` holds between each text's characters at ``p`` and ``q``."""
    return [map(op, map(operator.itemgetter(p), texts), map(operator.itemgetter(q), texts))
            for p, q in pairs]


def _by_columns(assignments: list, eqs, n_slot: int, tag: int, pattern, compl: bool,
                term_eqs, neqs) -> tuple[SliceCase, ...]:
    """A column's cases when each has one contributor, a term without inner
    words, computed a column at a time from ``assignments``, pairs of an
    assignment and its outer bits: the texts the filters keep, their keys,
    and one truth column per inequality.  A case is its key's single entry,
    or no entry where the term's own filters fail."""
    new, repeat = tuple.__new__, itertools.repeat
    assignments, words = zip(*assignments)
    texts = list(map("01".__add__, words))
    if eqs:
        keep = list(map(all, zip(*_compared(texts, eqs, operator.eq))))
        assignments = list(itertools.compress(assignments, keep))
        texts = list(itertools.compress(texts, keep))
    if compl:
        texts = list(map(str.__add__, texts, map(str.translate, texts, repeat(_FLIP))))
    # One atom's itemgetter returns its character alone, which joins to
    # itself.
    keys = map("".join, map(pattern, texts))
    truths = zip(*_compared(texts, neqs, operator.ne)) if neqs else repeat((), len(texts))
    # ``zip`` of one iterable wraps each item in a 1-tuple: one term's
    # record, the amplitude that holds it, and the state's one entry.
    amps = map(new, repeat(ValAmp), zip(zip(zip(repeat(tag), truths))))
    entries = zip(zip(keys, amps))
    if term_eqs:
        holds = map(all, zip(*_compared(texts, term_eqs, operator.eq)))
        entries = [e if ok else () for e, ok in zip(entries, holds)]
    return tuple(map(new, repeat(SliceCase), zip(
        assignments, map(new, repeat(StateVector), zip(repeat(n_slot), entries)))))


def render_slices(v: SetV, table: dict[int, tuple[A.VarCon, ...]],
                  slices: list[QubitSlice]) -> str:
    """Debug text: one line per concrete state, tagged by its assignment."""
    from .parser import render_varcon

    lines = [f"setP {v.uid} component slots {list(v.slots)}"]
    for t in v.terms:
        phi = ", ".join(render_varcon(c) for c in table[t.tag])
        lines.append(f"  phi_{t.tag} = [{phi}]")
    for sl in slices:
        lines.append(f"  slice {sl.index}:")
        for case in sl.cases:
            label = ", ".join(f"{name}_{sl.index}={b}"
                              for name, b in case.assignment)
            lines.append(f"    case {label or '-'}: {case.state}")
    return "\n".join(lines) + "\n"
