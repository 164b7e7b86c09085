"""Brute-force denotation of specifications, for differential testing.

Everything here enumerates variable assignments directly on the syntax
tree; none of the automaton pipeline is involved, so a disagreement
between :func:`denote` and the translated automaton's language points at
a genuine bug on one of the two sides.

:func:`differential_check` compares a symbolic specification's two sets
exactly first, as sets of polynomial states; sampled valuations are
substituted only when those sets differ.  Polynomials are canonical, so
equal symbolic sets stay equal under every valuation, and the shortcut
never changes a verdict.

The sampled valuations draw every value from ``_POOL``.  A constraint
formula reads a value's real and imaginary parts in ``Q(sqrt2)``; those
of the pool values are derived once, at import (``_POOL_PARTS``), and
only a value from outside the pool is derived as it is read.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import reduce

from . import ast as A
from .amplitude import (
    AC_I,
    AC_INV_SQRT2,
    AC_OMEGA,
    AC_ONE,
    COMPLEX,
    AlgebraicComplex,
    QSqrt2,
)
from .errors import CapExceededError, InternalError, LimitExceededError, UnboundComplexVarError
from .lsta import StateVector, permute_state, substitute_state

Valuation = dict[str, AlgebraicComplex]

# Assignments one set may enumerate: 2^|outer bits| cases, each with
# 2^|inner bits| per term.  A 16-bit set with one plain term is at the limit.
# It also bounds the members of one product of sets across a power or a
# tensor of segments.
MAX_SET_ASSIGNMENTS = 1 << 16


def _bitstrings(n: int):
    return ("".join(bits) for bits in itertools.product("01", repeat=n))


def varcon_holds(c: A.VarCon, phi: dict[str, str]) -> bool:
    if isinstance(c, A.Len):
        return len(phi[c.var]) == c.n
    if isinstance(c, A.NeqVar):
        return phi[c.left] != phi[c.right]
    if isinstance(c, A.NeqConst):
        return phi[c.var] != c.bits
    if isinstance(c, A.EqConst):
        return phi[c.var] == c.bits
    raise InternalError(f"unknown constraint {c!r}")


def _atom_bits(pattern, phi: dict[str, str]) -> str:
    out = []
    for atom in pattern:
        if isinstance(atom, A.Const):
            out.append(atom.bits)
        elif isinstance(atom, A.Var):
            out.append(phi[atom.name])
        else:
            out.append("".join("1" if b == "0" else "0" for b in phi[atom.name]))
    return "".join(out)


def _assignments(names, lengths: A.LengthMap):
    pools = [_bitstrings(lengths[v]) for v in names]
    for combo in itertools.product(*[list(p) for p in pools]):
        yield dict(zip(names, combo))


def _denote_setq(sq: A.SetQ, lengths: A.LengthMap,
                 theta: Valuation | None) -> set[StateVector]:
    width = A.pattern_width(next(sq.terms()).pattern, lengths)
    scope = sq.scope
    outer = sorted(scope.outer)
    outer_bits = sum(lengths[v] for v in outer)
    count = sum(1 << outer_bits + sum(lengths[v] for v in inner)
                for inner in scope.inner)
    if count > MAX_SET_ASSIGNMENTS:
        raise LimitExceededError(MAX_SET_ASSIGNMENTS, (
            f"the oracle needs {count} assignments for one set, "
            f"over the limit of {MAX_SET_ASSIGNMENTS}"))
    phis = [phi for phi in _assignments(outer, lengths)
            if all(varcon_holds(c, phi) for c in sq.predicate)]
    if not phis:
        # Substituting below could fail on a set that has no members.
        return set()
    # Each term's inner assignments, the same under every outer one.
    inners = iter(scope.inner)
    diracs = [[(term, list(_assignments(sorted(next(inners)), lengths)),
                term.amplitude if theta is None
                else term.amplitude.substitute(theta))
               for term in dirac]
              for dirac in sq.diracs]
    states: set[StateVector] = set()
    for phi in phis:
        for dirac in diracs:
            amp_map: dict[str, object] = {}
            for term, iphis, amp in dirac:
                for iphi in iphis:
                    full = {**phi, **iphi}
                    if not all(varcon_holds(c, full)
                               for c in term.sum_constraints):
                        continue
                    s = _atom_bits(term.pattern, full)
                    prev = amp_map.get(s)
                    amp_map[s] = amp if prev is None else prev + amp
            states.add(StateVector.of(width, amp_map, COMPLEX))
    return states


def _tensor_pair(x: StateVector, y: StateVector) -> StateVector:
    entries = {}
    for s1, a1 in x.entries:
        for s2, a2 in y.entries:
            entries[s1 + s2] = a1 * a2
    return StateVector.of(x.n + y.n, entries, COMPLEX)


def _product_count(m: int, n: int) -> int:
    """The pairs of a product of sets of ``m`` and ``n`` members; more than
    ``MAX_SET_ASSIGNMENTS`` raises :class:`LimitExceededError`."""
    count = m * n
    if count > MAX_SET_ASSIGNMENTS:
        raise LimitExceededError(MAX_SET_ASSIGNMENTS, (
            f"the oracle needs {count} products for one tensor of sets, "
            f"over the limit of {MAX_SET_ASSIGNMENTS}"))
    return count


def tensor_sets(xs: set[StateVector], ys: set[StateVector]) -> set[StateVector]:
    """Every ``x (x) y``.  A product of more than ``MAX_SET_ASSIGNMENTS``
    pairs raises :class:`LimitExceededError` before any is built."""
    _product_count(len(xs), len(ys))
    return {_tensor_pair(x, y) for x in xs for y in ys}


def denote(ast: A.AssertionAst, theta: Valuation | None = None,
           cap: int = 12) -> frozenset[StateVector]:
    """Enumerate the set of states one assertion describes.

    Predicate constraints filter the enumerated assignments; summation
    constraints filter each term's expansion (an emptied summation leaves
    the zero vector as a member).  The trailing amplitude-constraint
    formula is ignored here: choosing ``theta`` is the caller's business.
    A set that needs more than ``MAX_SET_ASSIGNMENTS`` assignments raises
    :class:`LimitExceededError` before any is enumerated.  So does a power
    or a tensor of segments once the running product of its factors' set
    sizes passes ``MAX_SET_ASSIGNMENTS``, in the order the products are
    taken, before any product is built.  The count is of factor sizes, not
    of the distinct states a product keeps, so a product that collides,
    such as one of scalar multiples, is counted in full.
    """
    lengths = A.infer_lengths(ast)
    A.check_well_formed(ast, lengths)
    total = A.qubit_count(ast, lengths)
    if total > cap:
        raise CapExceededError(total, cap)
    return _denote(ast, lengths, theta)


def _denote(ast: A.AssertionAst, lengths: A.LengthMap,
            theta: Valuation | None) -> frozenset[StateVector]:
    """:func:`denote` of a well-formed ``ast`` under its length map."""
    factors: list[list[set[StateVector]]] = []
    sizes: list[int] = []
    for seg in ast.segments:
        base: set[StateVector] = set()
        for sq in seg.base.alternatives:
            base |= _denote_setq(sq, lengths, theta)
        factors.append([base] * seg.power)
        sizes.append(reduce(_product_count, [len(base)] * seg.power))
    reduce(_product_count, sizes)
    return frozenset(reduce(tensor_sets, [reduce(tensor_sets, f) for f in factors]))


# ---------------------------------------------------------------------------
# Valuations: deterministic samples and constraint evaluation.
# ---------------------------------------------------------------------------

_POOL: tuple[AlgebraicComplex, ...] = (
    AC_ONE,
    AC_INV_SQRT2,
    AC_I,
    AlgebraicComplex.from_int(2),
    AlgebraicComplex.make(1, 0, 1, 0, 2),  # (1+i)/2
    AlgebraicComplex.make(1, 0, 0, 0, 2),  # 1/2
    AlgebraicComplex.from_int(-1),
    AC_OMEGA,
)

# Each pool value's real and imaginary parts, as ``_cexpr_val`` reads them.
_POOL_PARTS: dict[AlgebraicComplex, tuple[QSqrt2, QSqrt2]] = {
    v: (QSqrt2(*v.real_parts()), QSqrt2(*v.imag_parts())) for v in _POOL}

_SEARCH_LIMIT = 4096


def amplitude_vars(asts) -> list[str]:
    """All complex-amplitude variable names, sorted."""
    names: set[str] = set()
    for ast in asts:
        for term in ast.terms():
            names |= term.amplitude.variables()
        if ast.constraint is not None:
            names |= A.ccons_vars(ast.constraint)
    return sorted(names)


_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
_CMP = {"=": operator.eq, "!=": operator.ne, "<": operator.lt, "<=": operator.le,
        ">": operator.gt, ">=": operator.ge}


def _cexpr_val(e: A.CExpr, theta: Valuation) -> QSqrt2:
    if isinstance(e, A.CArith):
        out = _cexpr_val(e.first, theta)
        for op, x in e.rest:
            out = _ARITH[op](out, _cexpr_val(x, theta))
        return out
    if isinstance(e, A.CNum):
        return QSqrt2(e.value)
    if isinstance(e, (A.CRe, A.CIm, A.CAbsSq)):
        if e.var not in theta:
            raise UnboundComplexVarError(e.var)
        value = theta[e.var]
        parts = _POOL_PARTS.get(value)
        re, im = parts if parts is not None else (
            QSqrt2(*value.real_parts()), QSqrt2(*value.imag_parts()))
        if isinstance(e, A.CRe):
            return re
        if isinstance(e, A.CIm):
            return im
        return re * re + im * im
    raise InternalError(f"unknown arithmetic expression {e!r}")


def ccons_eval(f: A.CCons, theta: Valuation) -> bool:
    """Exact truth of an amplitude-constraint formula under ``theta``.

    A comparison with an operand that divides by zero is false, whatever
    its operator; a negation of it is true.
    """
    if isinstance(f, A.CCmp):
        try:
            left, right = _cexpr_val(f.left, theta), _cexpr_val(f.right, theta)
        except ZeroDivisionError:
            return False
        return _CMP[f.op](left, right)
    if isinstance(f, A.CNot):
        return not ccons_eval(f.inner, theta)
    if isinstance(f, A.CBin):
        # Left to right, stopping at the first operand that settles the chain.
        values = (ccons_eval(g, theta) for g in f.operands)
        return all(values) if f.op == "&&" else any(values)
    raise InternalError(f"unknown constraint formula {f!r}")


def satisfying_theta(constraint: A.CCons, names) -> Valuation | None:
    """First pool valuation satisfying ``constraint``, searched deterministically."""
    free = sorted(A.ccons_vars(constraint))
    for i, combo in enumerate(itertools.product(_POOL, repeat=len(free))):
        if i >= _SEARCH_LIMIT:
            return None
        theta = dict(zip(free, combo))
        if ccons_eval(constraint, theta):
            out = {v: _POOL[(1 + i) % len(_POOL)]
                   for i, v in enumerate(names)}
            out.update(theta)
            return out
    return None


def sample_thetas(asts, names: list[str] | None = None) -> list[Valuation]:
    """Three deterministic valuations covering every amplitude variable.

    Adds, per trailing constraint formula, one valuation satisfying it
    whenever the bounded pool search finds one.  ``names``, when given, is
    :func:`amplitude_vars` of ``asts``.
    """
    if names is None:
        names = amplitude_vars(asts)
    if not names:
        return []
    thetas = [
        {v: _POOL[(t + 2 * i) % len(_POOL)] for i, v in enumerate(names)}
        for t in range(3)
    ]
    for ast in asts:
        if ast.constraint is None:
            continue
        extra = satisfying_theta(ast.constraint, names)
        if extra is not None and extra not in thetas:
            thetas.append(extra)
    return thetas


# ---------------------------------------------------------------------------
# The differential check.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AssertionReport:
    index: int
    ok: bool
    detail: str


@dataclass(frozen=True)
class DiffReport:
    ok: bool
    assertions: tuple[AssertionReport, ...]

    def __str__(self) -> str:
        lines = [f"assertion {r.index}: {'ok' if r.ok else 'MISMATCH'} — {r.detail}"
                 for r in self.assertions]
        return "\n".join(lines)


def _nonzero(states):
    """``states`` without its zero members, reusing the members' stored hashes."""
    return states - {s for s in states if s.is_zero}


def _compare(lang, oracle) -> tuple[bool, str]:
    """Exact set comparison, ignoring zero members on both sides.

    The pipeline keeps a member whose amplitudes are all filtered away
    (it denotes the zero vector), while the enumeration drops assignments
    excluded by the predicate; both collapse to "no physical state".
    """
    lhs, rhs = _nonzero(lang), _nonzero(oracle)
    if lhs == rhs:
        return True, f"{len(rhs)} members match"
    missing = sorted(str(s) for s in rhs - lhs)
    extra = sorted(str(s) for s in lhs - rhs)
    bits = []
    if missing:
        bits.append(f"automaton misses {missing[0]}")
    if extra:
        bits.append(f"automaton adds {extra[0]}")
    return False, "; ".join(bits)


def differential_check(asts, thetas: list[Valuation] | None = None,
                       cap: int = 12) -> DiffReport:
    """Translate and compare against the brute-force enumeration.

    A specification with symbolic amplitudes is first compared exactly,
    as sets of polynomial states.  When the sets are equal modulo zero
    members and every valuation binds every amplitude variable, the
    assertion agrees under every valuation: substitution is a function of
    the polynomial, so equal sets give equal substituted sets, and a zero
    member stays zero on either side.  Only when the sets differ (or a
    valuation leaves a name unbound) is each sampled valuation substituted
    into both sides and the results compared; that sampled check decides,
    so a symbolic difference that no valuation separates still passes.

    The enumeration reads each assertion's length map from the translation,
    which inferred it from the same syntax tree and checked the tree's
    well-formedness under it; the one cross-check is that the map spans
    the translation's qubit count.
    """
    # The translation pipeline is imported lazily: the oracle must stay
    # importable (and meaningful) without it.
    from .build import translate
    from .lsta import enumerate_language

    asts = list(asts)
    result = translate(asts)
    n = result.qubits
    if n > cap:
        raise CapExceededError(n, cap)
    names = amplitude_vars(asts)
    if thetas is None:
        thetas = sample_thetas(asts, names)
    bound = all(theta.keys() >= set(names) for theta in thetas)

    reports = []
    for i, (ast, ar, lengths) in enumerate(
            zip(asts, result.assertions, result.source_lengths)):
        width = A.qubit_count(ast, lengths)
        if width != n:
            raise InternalError(
                f"assertion {i}'s lengths span {width} qubits, not the translation's {n}")
        auto = enumerate_language(ar.automaton, n)
        oracle = {permute_state(s, result.permutation)
                  for s in _denote(ast, lengths, None)}
        if not names:
            ok, detail = _compare(auto, oracle)
        elif bound and _nonzero(auto) == _nonzero(oracle):
            ok, detail = True, f"{len(thetas)} valuations agree"
        else:
            ok, detail = True, "no valuations sampled"
            for theta in thetas:
                li = {substitute_state(s, theta) for s in auto}
                oi = {substitute_state(s, theta) for s in oracle}
                ok, detail = _compare(li, oi)
                if not ok:
                    pretty = ", ".join(
                        f"{k}={v}" for k, v in sorted(theta.items()))
                    detail += f" (theta: {pretty})"
                    break
            else:
                detail = f"{len(thetas)} valuations agree"
        reports.append(AssertionReport(i, ok, detail))
    return DiffReport(all(r.ok for r in reports), tuple(reports))
