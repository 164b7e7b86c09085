"""Abstract syntax for set-based state assertions, plus static checks.

An assertion denotes a set of quantum states.  Its shape is a tensor product
of segments; each segment is a union of braced sets; each braced set holds
one or more superposition patterns (diracs) over a shared predicate.  The
static checks here resolve every bitstring variable to a definite qubit
length and reject patterns whose meaning would be ambiguous.

A set's scope, which variables it enumerates and which each term sums over,
is kept on the parsed ``SetQ`` object, computed on first use: ``kets``
holds one ``KetScope`` per ket, which canonicalization renames by and the
scope and length checks of ``build.translate`` read, and ``scope`` the
whole set's, which :func:`check_well_formed` and the oracle's enumeration
read.  The oracle enumerates the sets a translation checked, so the two
share them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from typing import NamedTuple

from .amplitude import AmplitudePoly
from .errors import (
    ConflictingLengthError,
    LengthMismatchError,
    LimitExceededError,
    RedundantSummationVarError,
    UnknownLengthError,
    WellFormednessError,
)

# Qubits one spec may span, and the largest exponent an amplitude may
# carry.  Ket repeats are checked as they are parsed, tensor powers and
# variable lengths before a translation expands them.
MAX_QUBITS = 1 << 16

# -- ket pattern atoms -------------------------------------------------------
# A run of constant bits is one atom however many qubits it spans, and no two
# runs are adjacent: ``|1 0^3 i>`` is ``(Const("1000"), Var("i"))``.


@dataclass(frozen=True)
class Const:
    bits: str


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Compl:
    """The bitwise complement of a variable, written ``~name``."""

    name: str


Atom = Const | Var | Compl


# -- variable constraints ----------------------------------------------------


@dataclass(frozen=True)
class Len:
    var: str
    n: int


@dataclass(frozen=True)
class NeqVar:
    left: str
    right: str


@dataclass(frozen=True)
class NeqConst:
    var: str
    bits: str


@dataclass(frozen=True)
class EqConst:
    var: str
    bits: str


VarCon = Len | NeqVar | NeqConst | EqConst


def varcon_vars(c: VarCon) -> tuple[str, ...]:
    if type(c) is NeqVar:
        return (c.left, c.right)
    return (c.var,)


# -- structure ----------------------------------------------------------------


@dataclass(frozen=True)
class Term:
    """One summand of a dirac: an amplitude, an optional summation, a ket."""

    amplitude: AmplitudePoly
    sum_constraints: tuple[VarCon, ...]
    pattern: tuple[Atom, ...]


Dirac = tuple[Term, ...]


@dataclass(frozen=True)
class SetQ:
    """A braced set: one or more diracs filtered by a shared predicate."""

    diracs: tuple[Dirac, ...]
    predicate: tuple[VarCon, ...] = ()

    def terms(self):
        """Every term of every comma-separated ket, in source order."""
        for dirac in self.diracs:
            yield from dirac

    def constraints(self):
        """The predicate, then each term's summation constraints."""
        yield from self.predicate
        for term in self.terms():
            yield from term.sum_constraints

    # A set's scopes are computed once per set object, on first use, and
    # kept in its ``__dict__``, outside the dataclass fields: equality,
    # hashing and ``repr`` do not see them.

    @cached_property
    def kets(self) -> tuple[KetScope, ...]:
        """The scope of each comma-separated ket with the predicate, the set
        that canonicalization makes of it.  Canonicalization renames by
        them; ``preprocess._check_constrained_vars_occur`` and the build's
        test that each canonical form's lengths can be inferred read them."""
        return tuple(_ket_scope(self.predicate, dirac) for dirac in self.diracs)

    @cached_property
    def scope(self) -> Scope:
        """The scope of the whole set, taken from its kets' scopes.
        :func:`check_well_formed` and the oracle's enumeration read it.

        The set's outer variables are those of its kets, as
        :func:`outer_vars` takes the predicate and every ket's variables
        that their own terms do not sum over, and a term sums over the
        variables its ket's scope holds as inner beyond them.
        """
        kets = self.kets
        if len(kets) == 1:
            return Scope(*kets[0][:2])
        outer = tuple(dict.fromkeys(chain.from_iterable(k.outer for k in kets)))
        return Scope(outer, tuple(
            tuple(v for v in names if v not in outer)
            for k in kets for names in k.inner))


class Scope(NamedTuple):
    """Which variables a set enumerates and which each of its terms sums
    over: ``outer`` holds the variables of :func:`outer_vars` of the set,
    and ``inner[k]`` is :func:`inner_vars` of its ``k``-th term, in
    ``SetQ.terms`` order.  ``outer`` is in first-occurrence order for one
    ket and in ket order for several."""

    outer: tuple[str, ...]
    inner: tuple[tuple[str, ...], ...]


class KetScope(NamedTuple):
    """The :class:`Scope` of one ket with its set's predicate, and two facts
    about it.

    ``absent`` is the first variable its constraints name (the predicate's,
    then each term's summations) that none of its patterns holds, or None.
    ``sized`` says whether its own constraints size each of its variables,
    as :func:`infer_lengths` does before it reads positions: each is named
    by a length constraint or a comparison with a constant, or tied by
    ``!=`` to one that is.  An inner variable is its term's own.
    """

    outer: tuple[str, ...]
    inner: tuple[tuple[str, ...], ...]
    absent: str | None
    sized: bool


@dataclass(frozen=True)
class USet:
    alternatives: tuple[SetQ, ...]


@dataclass(frozen=True)
class PSet:
    base: USet
    power: int = 1

    def terms(self):
        """The terms of the base union in source order."""
        for sq in self.base.alternatives:
            yield from sq.terms()


# -- amplitude-variable constraint formulas ----------------------------------


@dataclass(frozen=True)
class CNum:
    value: Fraction


@dataclass(frozen=True)
class CRe:
    var: str


@dataclass(frozen=True)
class CIm:
    var: str


@dataclass(frozen=True)
class CAbsSq:
    var: str


@dataclass(frozen=True)
class CArith:
    first: "CExpr"  # a chain of one precedence level, left to right
    rest: tuple[tuple[str, "CExpr"], ...]  # (op, operand); + - or * /


CExpr = CNum | CRe | CIm | CAbsSq | CArith


@dataclass(frozen=True)
class CCmp:
    op: str  # = != < <= > >=
    left: CExpr
    right: CExpr


@dataclass(frozen=True)
class CNot:
    inner: "CCons"


@dataclass(frozen=True)
class CBin:
    op: str  # && ||
    operands: tuple["CCons", ...]


CCons = CCmp | CNot | CBin


def ccons_vars(f: CCons | CExpr) -> frozenset[str]:
    out: set[str] = set()
    todo = [f]
    while todo:
        e = todo.pop()
        if isinstance(e, (CRe, CIm, CAbsSq)):
            out.add(e.var)
        elif isinstance(e, CNot):
            todo.append(e.inner)
        elif isinstance(e, CBin):
            todo += e.operands
        elif isinstance(e, CArith):
            todo += [e.first, *(x for _op, x in e.rest)]
        elif isinstance(e, CCmp):
            todo += (e.left, e.right)
    return frozenset(out)


@dataclass(frozen=True)
class AssertionAst:
    """A full assertion: tensor segments plus an optional amplitude constraint."""

    segments: tuple[PSet, ...]
    constraint: CCons | None = None

    def setqs(self):
        for seg in self.segments:
            yield from seg.base.alternatives

    def terms(self):
        """Every term of every segment in source order, powers counted once."""
        for seg in self.segments:
            yield from seg.terms()


LengthMap = dict[str, int]


# -- length inference ---------------------------------------------------------


class UnionFind:
    """Disjoint sets over hashable items, each added on first mention."""

    def __init__(self) -> None:
        self.parent: dict = {}

    def find(self, x):
        self.parent.setdefault(x, x)
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, x, y) -> None:
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[rx] = ry


def _all_constraints(ast: AssertionAst):
    for sq in ast.setqs():
        yield from sq.constraints()


def infer_lengths(ast: AssertionAst) -> LengthMap:
    """Resolve the qubit length of every bitstring variable in ``ast``.

    Lengths come from explicit ``|v| = n`` constraints and from the operands
    of (in)equality constraints, propagated through same-length classes to a
    fixpoint.  A complemented occurrence ``~v`` shares the length of ``v``.
    Positions carry the rest: every ket inside one union spans the same
    qubits, so a ket whose width is already fixed pins the single unknown
    variable of a sibling ket.
    """
    return _infer(ast)


def check_inferable(ast: AssertionAst) -> None:
    """Raise what :func:`infer_lengths` raises on ``ast``, if anything.

    A translation carries its canonical forms' lengths over from the
    sources, renamed, so it needs only this verdict, and only on a form
    one of whose kets leaves a variable to be sized by position (see
    :attr:`KetScope.sized`): a ket is a scope of its own there, and a
    length the source took from another scope may not be inferable.
    """
    _infer(ast)


def _infer(ast: AssertionAst) -> LengthMap:
    uf = UnionFind()
    known: dict[str, tuple[int, str]] = {}  # class root -> (length, witness var)

    def assign(var: str, n: int) -> None:
        root = uf.find(var)
        cur = known.get(root)
        if cur is not None and cur[0] != n:
            raise ConflictingLengthError(var, cur[0], n)
        known[root] = (n, var)

    mentioned: set[str] = set()
    for term in ast.terms():
        mentioned.update(a.name for a in term.pattern if type(a) is not Const)
    constraints = list(_all_constraints(ast))
    for con in constraints:
        if type(con) is NeqVar:
            mentioned.update((con.left, con.right))
            uf.union(con.left, con.right)
        else:
            mentioned.add(con.var)
    for con in constraints:
        if type(con) is Len:
            assign(con.var, con.n)
        elif type(con) is not NeqVar:
            assign(con.var, len(con.bits))

    # Positions are read only while a variable is left unsized.
    changed = any(uf.find(v) not in known for v in mentioned)
    while changed:
        changed = False
        for seg in ast.segments:
            width: int | None = None
            pending: list[tuple[int, dict[str, tuple[int, str]]]] = []
            for term in seg.terms():
                bits = 0
                unknown: dict[str, tuple[int, str]] = {}
                for atom in term.pattern:
                    if isinstance(atom, Const):
                        bits += len(atom.bits)
                        continue
                    root = uf.find(atom.name)
                    if root in known:
                        bits += known[root][0]
                    else:
                        count, _ = unknown.get(root, (0, ""))
                        unknown[root] = (count + 1, atom.name)
                if unknown:
                    pending.append((bits, unknown))
                elif width is None:
                    width = bits
            if width is None:
                continue
            for bits, unknown in pending:
                if len(unknown) != 1:
                    continue
                ((root, (count, witness)),) = unknown.items()
                span = width - bits
                if root not in known and span > 0 and span % count == 0:
                    assign(witness, span // count)
                    changed = True

    lengths: LengthMap = {}
    for var in sorted(mentioned):
        entry = known.get(uf.find(var))
        if entry is None:
            raise UnknownLengthError(var)
        lengths[var] = entry[0]
    return lengths


# -- well-formedness -----------------------------------------------------------


def pattern_width(pattern: tuple[Atom, ...], lengths: LengthMap) -> int:
    return sum(len(a.bits) if isinstance(a, Const) else lengths[a.name] for a in pattern)


def qubit_count(ast: AssertionAst, lengths: LengthMap) -> int:
    """Qubits ``ast`` spans, each segment's width times its power."""
    return sum(pattern_width(next(seg.terms()).pattern, lengths) * seg.power
               for seg in ast.segments)


def check_qubit_count(ast: AssertionAst, widths: list[int]) -> None:
    """Refuse a spec over ``MAX_QUBITS`` qubits, before anything expands it.
    ``widths`` are its segments' widths, as :func:`check_well_formed`
    returns them."""
    n = sum(w * seg.power for w, seg in zip(widths, ast.segments))
    if n > MAX_QUBITS:
        raise LimitExceededError(MAX_QUBITS, (
            f"the spec spans {n} qubits, over the limit of {MAX_QUBITS}"))


def pattern_vars(term: Term) -> frozenset[str]:
    return frozenset(
        a.name for a in term.pattern if isinstance(a, (Var, Compl))
    )


def outer_vars(predicate, terms) -> tuple[str, ...]:
    """The variables a set enumerates, in first-occurrence order.

    They are the predicate's variables plus every ket variable that its own
    term does not sum over.  Order: the predicate's constraints, then the
    kets left to right.  Fresh names and slice case order follow it.
    ``terms`` may hold ``Term``s or projected ``var_reorder.VTerm``s.
    """
    return _walk(predicate, terms)[0]


def _walk(predicate, terms):
    """:func:`outer_vars`, as a tuple and as a set, with what its walk reads
    on the way: the variables the predicate names, and each term's pattern
    variables and summation variables (``()`` for a term with no
    summation), each in order."""
    named = [v for c in predicate for v in varcon_vars(c)]
    outer = set(named)
    kets, sums = [], []
    for term in terms:
        ket = [a.name for a in term.pattern if type(a) is not Const]
        if term.sum_constraints:
            summed = [v for c in term.sum_constraints for v in varcon_vars(c)]
            outer.update(set(ket).difference(summed))
        else:
            summed = ()
            outer.update(ket)
        kets.append(ket)
        sums.append(summed)
    first = dict.fromkeys(chain(named, *kets))
    return tuple(v for v in first if v in outer), outer, named, kets, sums


def inner_vars(term, outer) -> tuple[str, ...]:
    """The variables ``term`` sums over beyond ``outer``, in first-occurrence order."""
    return tuple(dict.fromkeys(
        v for c in term.sum_constraints for v in varcon_vars(c)
        if v not in outer))


def _ket_scope(predicate: tuple[VarCon, ...], terms: Dirac) -> KetScope:
    """One walk over the ket's terms (:func:`_walk`); every field is
    derived from what it read."""
    outer, outer_set, named, kets, sums = _walk(predicate, terms)
    # inner_vars of each term.
    inner = tuple(tuple(dict.fromkeys(v for v in summed if v not in outer_set))
                  if summed else () for summed in sums)
    in_pattern = set(chain.from_iterable(kets))
    constrained = set(named).union(*sums)
    absent = None
    if not constrained <= in_pattern:
        absent = next(v for v in chain(named, *sums) if v not in in_pattern)
    # A `!=` of two variables is the one constraint that names two.
    if len(named) > len(predicate) or any(
            len(summed) > len(t.sum_constraints) for summed, t in zip(sums, terms)):
        sized = _self_sized(predicate, terms, outer, inner)
    else:
        # Every constraint names the one variable it sizes, and an inner
        # variable is named by its own term's.
        sized = constrained.issuperset(outer)
    return KetScope(outer, inner, absent, sized)


def _self_sized(predicate, terms, outer, inner) -> bool:
    """:attr:`KetScope.sized`.  A variable is keyed by its name when it is
    outer and by its term's position and name when it is inner."""
    sized: set = set()
    ties = []
    for k, cons in enumerate((predicate, *(t.sum_constraints for t in terms))):
        for c in cons:
            if type(c) is NeqVar:
                ties.append((c.left if c.left in outer else (k, c.left),
                             c.right if c.right in outer else (k, c.right)))
            else:
                sized.add(c.var if c.var in outer else (k, c.var))
    grew = True
    while grew:
        grew = False
        for x, y in ties:
            if (x in sized) != (y in sized):
                sized.update((x, y))
                grew = True
    return sized.issuperset(outer) and all(
        (k, v) in sized for k, names in enumerate(inner, start=1) for v in names)


def check_well_formed(ast: AssertionAst, lengths: LengthMap) -> list[int]:
    """Enforce the static rules on a length-resolved assertion, and return
    each segment's width, once (its power not applied).

    1. every tensor power and every variable spans at least one qubit,
    2. every dirac inside one union denotes states of one qubit count,
    3. the operands of every (in)equality constraint have equal length,
    4. a summation variable that does not occur in its term's ket would
       silently scale the amplitude, so it is rejected.
    """
    for var, n in lengths.items():
        if n < 1:
            raise WellFormednessError(f"variable '{var}' spans no qubits")
    seg_widths = []
    for seg in ast.segments:
        if seg.power < 1:
            raise WellFormednessError(f"tensor power {seg.power} is below 1")
        widths = [pattern_width(t.pattern, lengths) for t in seg.terms()]
        for w in widths[1:]:
            if w != widths[0]:
                raise LengthMismatchError("union members", widths[0], w)
        seg_widths.append(widths[0])

    for con in _all_constraints(ast):
        if isinstance(con, NeqVar):
            n1, n2 = lengths[con.left], lengths[con.right]
            if n1 != n2:
                raise LengthMismatchError(
                    f"{con.left} != {con.right}", n1, n2
                )
        elif isinstance(con, (NeqConst, EqConst)):
            n1, n2 = lengths[con.var], len(con.bits)
            if n1 != n2:
                op = "=" if isinstance(con, EqConst) else "!="
                raise LengthMismatchError(f"{con.var} {op} {con.bits}", n1, n2)

    for sq in ast.setqs():
        for term, inner in zip(sq.terms(), sq.scope.inner):
            loose = set(inner).difference(pattern_vars(term)) if inner else ()
            if loose:
                raise RedundantSummationVarError(min(loose))
    return seg_widths
