"""Amplitude domains used on automaton leaves.

Three commutative semirings share the leaf-transition slot of an automaton:

* :class:`AlgebraicComplex` / :class:`AmplitudePoly` — exact complex numbers
  of the form ``(a + b*w + c*w^2 + d*w^3) / sqrt2^k`` with ``w = e^{i*pi/4}``,
  and polynomials over named complex variables with such coefficients.
* tag amplitudes — finite sets of term indices; addition is set union and
  multiplication set intersection, with the empty set as absorbing zero.
* :class:`ValAmp` — indexed families of boolean valuations recording, per
  term index, which of the term's inequality constraints have already been
  satisfied by the qubits seen so far.

Each domain is one :class:`Semiring` record, :data:`COMPLEX`, :data:`TAG` or
:data:`VALUATION`, holding its zero and its operations; automata touch leaf
values only through the record, whatever the domain.

Values are tuples.  :class:`AlgebraicComplex`, :class:`AmplitudePoly` and
:class:`ValAmp` are ``NamedTuple`` records, as ``lsta.Internal`` and
``lsta.Leaf`` are, and the hot paths build them with ``tuple.__new__``, so
building the record, hashing it and comparing it run no Python code.  Equality
is by fields, whatever the class: ``POLY_ZERO == VAL_ZERO`` is true.  So a
value's domain is its automaton's :class:`Semiring`, and no container mixes
values of two domains.  Operators that ``tuple`` would lend a record, such
as ``+`` on a ``ValAmp``, ``2 * x`` or ``<``, return ``NotImplemented``, so
they raise ``TypeError`` as on any value without that arithmetic.  The
specification's AST nodes stay dataclasses, because ``Var("x")`` and
``Compl("x")`` would be equal as tuples.
"""

from __future__ import annotations

import cmath
import operator
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, NamedTuple

from .errors import InternalError, LimitExceededError, UnboundComplexVarError

_OMEGA = cmath.exp(1j * cmath.pi / 4)
_SQRT2 = 2 ** 0.5


class ExactDivisionError(InternalError):
    """The divisor has no inverse in the ring Z[w, 1/sqrt2]."""


def undefined_operator(self, other):
    """An operator a value record does not define, in place of ``tuple``'s."""
    return NotImplemented


class AlgebraicComplex(NamedTuple):
    """An element of Z[w, 1/sqrt2] with w = e^{i*pi/4}, kept in canonical form.

    The value is ``(a + b*w + c*w^2 + d*w^3) / sqrt2^k``.  Canonical form
    means the numerator is not divisible by sqrt2 unless ``k == 0``, so two
    equal values always have identical components.  Construct through
    :meth:`make` (or the arithmetic operators), never by mutating fields.
    """

    a: int
    b: int
    c: int
    d: int
    k: int = 0

    @classmethod
    def make(cls, a: int, b: int, c: int, d: int, k: int = 0) -> "AlgebraicComplex":
        if k < 0:
            # Negative powers denote multiplication by sqrt2: fold them in.
            a, b, c, d = _mul_sqrt2((a, b, c, d), -k)
            k = 0
        bits = a | b | c | d
        if not bits:
            return tuple.__new__(cls, (0, 0, 0, 0, 0))
        if k > 1 and not bits & 1:
            # Divide numerator and sqrt2^k by their common power of two.
            s = min((bits & -bits).bit_length() - 1, k // 2)
            a, b, c, d, k = a >> s, b >> s, c >> s, d >> s, k - 2 * s
        # A numerator that sqrt2 divides twice is even, so one more step
        # leaves it in canonical form.
        if k > 0 and (a - c) % 2 == 0 and (b - d) % 2 == 0:
            a, b, c, d = (b - d) // 2, (a + c) // 2, (b + d) // 2, (c - a) // 2
            k -= 1
        return tuple.__new__(cls, (a, b, c, d, k))

    @classmethod
    def from_int(cls, n: int) -> "AlgebraicComplex":
        return tuple.__new__(cls, (n, 0, 0, 0, 0))

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "AlgebraicComplex") -> "AlgebraicComplex":
        a, b, c, d, k = self
        p, q, r, s, m = other
        if k < m:
            a, b, c, d = _mul_sqrt2((a, b, c, d), m - k)
            k = m
        elif m < k:
            p, q, r, s = _mul_sqrt2((p, q, r, s), k - m)
        return AlgebraicComplex.make(a + p, b + q, c + r, d + s, k)

    def __neg__(self) -> "AlgebraicComplex":
        a, b, c, d, k = self
        return tuple.__new__(AlgebraicComplex, (-a, -b, -c, -d, k))

    def __sub__(self, other: "AlgebraicComplex") -> "AlgebraicComplex":
        return self + (-other)

    def __mul__(self, other: "AlgebraicComplex") -> "AlgebraicComplex":
        return AlgebraicComplex.make(*_mul_omega_poly(self[:4], other[:4]),
                                     self.k + other.k)

    def __truediv__(self, other: "AlgebraicComplex") -> "AlgebraicComplex":
        a, b, c, d, k = other
        if not (a or b or c or d):
            raise ExactDivisionError("division by zero")
        # A divisor 2^h / sqrt2^k or 2^h * sqrt2 / sqrt2^k is sqrt2^j, and
        # dividing by it adds j to the quotient's k.
        if not (b or c or d) and a > 0 and not a & (a - 1):
            return AlgebraicComplex.make(*self[:4], self.k + 2 * a.bit_length() - 2 - k)
        if not (a or c) and d == -b and b > 0 and not b & (b - 1):
            return AlgebraicComplex.make(*self[:4], self.k + 2 * b.bit_length() - 1 - k)
        u = (a, b, c, d)
        # Inverse via the three Galois conjugates: 1/u = conj_product / norm.
        p = _mul_omega_poly(_sigma3(u), _mul_omega_poly(_sigma5(u), _sigma7(u)))
        norm = _mul_omega_poly(u, p)
        assert norm[1] == norm[2] == norm[3] == 0
        n = norm[0]
        sign = 1 if n > 0 else -1
        n *= sign
        t = (n & -n).bit_length() - 1
        n >>= t
        if n != 1:
            raise ExactDivisionError(
                f"result of division is outside the ring (norm has odd factor {n})"
            )
        inv = AlgebraicComplex.make(*(sign * x for x in p), 2 * t - k)
        return self * inv

    def __pow__(self, n: int) -> "AlgebraicComplex":
        if n < 0:
            return AlgebraicComplex.from_int(1) / self ** (-n)
        out = AlgebraicComplex.from_int(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    __rmul__ = __lt__ = __le__ = __gt__ = __ge__ = undefined_operator

    # -- views --------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.a == self.b == self.c == self.d == 0

    def to_complex(self) -> complex:
        num = self.a + self.b * _OMEGA + self.c * 1j + self.d * _OMEGA ** 3
        return num / _SQRT2 ** self.k

    def real_parts(self) -> tuple[Fraction, Fraction]:
        """Real part expressed exactly as ``p + q*sqrt2``."""
        return _scale_down(Fraction(self.a), Fraction(self.b - self.d, 2), self.k)

    def imag_parts(self) -> tuple[Fraction, Fraction]:
        """Imaginary part expressed exactly as ``p + q*sqrt2``."""
        return _scale_down(Fraction(self.c), Fraction(self.b + self.d, 2), self.k)

    def __str__(self) -> str:
        """Exact expression text for the constant, using 1, i and sqrt2.

        The eighth root of unity never appears: ``w = (1 + i)/sqrt2``, so
        the w and w^3 components fold into one Gaussian numerator over an
        extra power of sqrt2.  The result re-parses to the same value.

        Raises :class:`LimitExceededError` when a component has more
        decimal digits than Python converts (``sys.get_int_max_str_digits``).
        """
        parts = []
        try:
            if self.a or self.c:
                parts.append(_over_sqrt2(_gaussian(self.a, self.c), self.k))
            if self.b or self.d:
                num = _gaussian(self.b, self.d)
                text = f"{num} * (1 + i)" if num != "1" else "(1 + i)"
                parts.append(_over_sqrt2(text, self.k + 1))
        except ValueError:
            limit = sys.get_int_max_str_digits()
            raise LimitExceededError(
                limit, "an amplitude coefficient is too long to write in decimal "
                f"(over {limit} digits)") from None
        if not parts:
            return "0"
        return " + ".join(parts)


def _gaussian(x: int, y: int) -> str:
    if y == 0:
        return str(x)
    itext = "i" if y == 1 else ("-i" if y == -1 else f"{y}*i")
    if x == 0:
        return itext
    return f"({x} + {itext})" if y > 0 else f"({x} - {itext.lstrip('-')})"


def _over_sqrt2(num: str, k: int) -> str:
    if k == 0:
        return num
    den = "sqrt2" if k == 1 else f"sqrt2^{k}"
    return f"{num}/{den}"


def _mul_sqrt2(num: tuple[int, int, int, int], times: int) -> tuple[int, int, int, int]:
    """``num`` times sqrt2^times: a shift for each factor of two, then one
    sqrt2 step when ``times`` is odd."""
    a, b, c, d = num
    if times > 1:
        h = times >> 1
        a, b, c, d = a << h, b << h, c << h, d << h
    if times & 1:
        a, b, c, d = b - d, a + c, b + d, c - a
    return a, b, c, d


def _mul_omega_poly(
    x: tuple[int, int, int, int], y: tuple[int, int, int, int]
) -> tuple[int, int, int, int]:
    """The product of two numerators in Z[w], reduced by w^4 = -1."""
    a, b, c, d = x
    e, f, g, h = y
    return (a * e - b * h - c * g - d * f,
            a * f + b * e - c * h - d * g,
            a * g + b * f + c * e - d * h,
            a * h + b * g + c * f + d * e)


def _sigma3(u: tuple[int, int, int, int]) -> tuple[int, int, int, int]:
    a, b, c, d = u
    return a, d, -c, b


def _sigma5(u: tuple[int, int, int, int]) -> tuple[int, int, int, int]:
    a, b, c, d = u
    return a, -b, c, -d


def _sigma7(u: tuple[int, int, int, int]) -> tuple[int, int, int, int]:
    a, b, c, d = u
    return a, -d, -c, -b


def _scale_down(p: Fraction, q: Fraction, k: int) -> tuple[Fraction, Fraction]:
    """Divide the value ``p + q*sqrt2`` by ``sqrt2^k`` within Q(sqrt2)."""
    half, odd = divmod(k, 2)
    scale = Fraction(1, 2 ** half)
    p, q = p * scale, q * scale
    if odd:
        p, q = q, p / 2
    return p, q


AC_ZERO = AlgebraicComplex.from_int(0)
AC_ONE = AlgebraicComplex.from_int(1)
AC_I = AlgebraicComplex(0, 0, 1, 0, 0)
AC_OMEGA = AlgebraicComplex(0, 1, 0, 0, 0)
AC_SQRT2 = AlgebraicComplex(0, 1, 0, -1, 0)
AC_INV_SQRT2 = AlgebraicComplex(1, 0, 0, 0, 1)


# ---------------------------------------------------------------------------
# Polynomials over named complex variables.
# ---------------------------------------------------------------------------

Monomial = tuple[tuple[str, int], ...]

# The most term pairs one product of polynomials may multiply, so that a
# power such as ``(a+b)^2000`` is refused rather than expanded for minutes.
_MAX_TERM_PAIRS = 1 << 16


class AmplitudePoly(NamedTuple):
    """Polynomial in named variables with :class:`AlgebraicComplex` coefficients.

    Stored as a sorted tuple of (monomial, coefficient) pairs with no zero
    coefficients, so structural equality is semantic equality.
    """

    terms: tuple[tuple[Monomial, AlgebraicComplex], ...] = ()

    @classmethod
    def const(cls, value: AlgebraicComplex) -> "AmplitudePoly":
        if value.is_zero:
            return tuple.__new__(cls, ((),))
        return tuple.__new__(cls, ((((), value),),))

    @classmethod
    def var(cls, name: str) -> "AmplitudePoly":
        return tuple.__new__(cls, (((((name, 1),), AC_ONE),),))

    @classmethod
    def from_int(cls, n: int) -> "AmplitudePoly":
        return cls.const(AlgebraicComplex.from_int(n))

    @classmethod
    def _from_dict(cls, d: dict[Monomial, AlgebraicComplex]) -> "AmplitudePoly":
        # Coefficients are canonical, so a zero one equals AC_ZERO.
        if AC_ZERO in d.values():
            d = {m: c for m, c in d.items() if c != AC_ZERO}
        return tuple.__new__(cls, (tuple(sorted(d.items())),))

    def __add__(self, other: "AmplitudePoly") -> "AmplitudePoly":
        acc = dict(self.terms)
        for mono, coef in other.terms:
            cur = acc.get(mono)
            acc[mono] = coef if cur is None else cur + coef
        return AmplitudePoly._from_dict(acc)

    def __neg__(self) -> "AmplitudePoly":
        return tuple.__new__(AmplitudePoly, (tuple((m, -c) for m, c in self.terms),))

    def __sub__(self, other: "AmplitudePoly") -> "AmplitudePoly":
        return self + (-other)

    def term_pairs(self, other: "AmplitudePoly") -> int:
        """How many pairs of terms ``self * other`` multiplies; raises
        :class:`LimitExceededError` when that is more than
        ``_MAX_TERM_PAIRS``."""
        pairs = len(self.terms) * len(other.terms)
        if pairs > _MAX_TERM_PAIRS:
            raise LimitExceededError(
                _MAX_TERM_PAIRS, f"an amplitude product of {pairs} term pairs is over "
                f"the limit of {_MAX_TERM_PAIRS}")
        return pairs

    def __mul__(self, other: "AmplitudePoly") -> "AmplitudePoly":
        """The product, refused as :meth:`term_pairs` says."""
        self.term_pairs(other)
        acc: dict[Monomial, AlgebraicComplex] = {}
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                mono = _merge_monomials(m1, m2) if m1 and m2 else m1 or m2
                coef = c1 * c2
                cur = acc.get(mono)
                acc[mono] = coef if cur is None else cur + coef
        return AmplitudePoly._from_dict(acc)

    def __truediv__(self, other: "AmplitudePoly") -> "AmplitudePoly":
        if not other.is_constant:
            raise ExactDivisionError("division by a non-constant amplitude")
        inv = AC_ONE / other.constant_value
        return tuple.__new__(AmplitudePoly, (tuple((m, c * inv) for m, c in self.terms),))

    def __pow__(self, n: int) -> "AmplitudePoly":
        if n < 0:
            if not self.is_constant:
                raise ExactDivisionError("negative power of a non-constant amplitude")
            return AmplitudePoly.const(self.constant_value ** n)
        return self.power(n, AmplitudePoly.__mul__)

    def power(self, n: int, times: Callable) -> "AmplitudePoly":
        """``self ** n`` for ``n >= 0`` by repeated squaring, each product
        taken as ``times(x, y)``, so that a caller can count them."""
        out = AmplitudePoly.from_int(1)
        base = self
        while n:
            if n & 1:
                out = times(out, base)
            n >>= 1
            if n:
                base = times(base, base)
        return out

    __rmul__ = __lt__ = __le__ = __gt__ = __ge__ = undefined_operator

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        return all(m == () for m, _ in self.terms)

    @property
    def constant_value(self) -> AlgebraicComplex:
        if not self.terms:
            return AC_ZERO
        assert self.is_constant
        return self.terms[0][1]

    def variables(self) -> frozenset[str]:
        return frozenset(name for mono, _ in self.terms for name, _ in mono)

    def substitute(self, theta: dict[str, AlgebraicComplex]) -> "AmplitudePoly":
        """Replace every variable using ``theta``; the result is constant."""
        out = AC_ZERO
        for mono, coef in self.terms:
            val = coef
            for name, exp in mono:
                if name not in theta:
                    raise UnboundComplexVarError(name)
                val = val * theta[name] ** exp
            out = out + val
        return AmplitudePoly.const(out)

    def to_complex(self, theta: dict[str, complex] | None = None) -> complex:
        out = 0j
        for mono, coef in self.terms:
            val = coef.to_complex()
            for name, exp in mono:
                if theta is None or name not in theta:
                    raise UnboundComplexVarError(name)
                val *= theta[name] ** exp
            out += val
        return out

    def __str__(self) -> str:
        """Text that re-parses to the same polynomial.

        A coefficient written as a sum (it has both a Gaussian and an
        ``(1 + i)/sqrt2`` part) is parenthesised before its variables.
        """
        if not self.terms:
            return "0"
        parts = []
        for mono, coef in self.terms:
            text = str(coef)
            if mono and (coef.a or coef.c) and (coef.b or coef.d):
                text = f"({text})"
            factors = [] if mono and coef == AC_ONE else [text]
            for name, exp in mono:
                factors.append(name if exp == 1 else f"{name}^{exp}")
            parts.append(" * ".join(factors))
        return " + ".join(parts)


def _merge_monomials(m1: Monomial, m2: Monomial) -> Monomial:
    acc: dict[str, int] = {}
    for name, exp in m1 + m2:
        acc[name] = acc.get(name, 0) + exp
    return tuple(sorted(acc.items()))


POLY_ZERO = AmplitudePoly(())
POLY_ONE = AmplitudePoly.from_int(1)


# ---------------------------------------------------------------------------
# Tag amplitudes: subsets of term indices.
# ---------------------------------------------------------------------------

def tag(*indices: int) -> frozenset[int]:
    return frozenset(indices)


def _render_tag(x: frozenset[int]) -> str:
    return "t0" if not x else "+".join(f"t{i}" for i in sorted(x))


# ---------------------------------------------------------------------------
# Valuation amplitudes.
# ---------------------------------------------------------------------------


class ValAmp(NamedTuple):
    """A family ``{f_m}`` of boolean valuations indexed by term number.

    Each entry maps a term index ``m`` to a tuple of booleans aligned with
    that term's ordered inequality-constraint list.  Addition unions the
    index sets, combining colliding entries by pointwise disjunction;
    multiplication intersects the index sets, again with pointwise
    disjunction.  The empty family is the absorbing zero.
    """

    entries: tuple[tuple[int, tuple[bool, ...]], ...] = ()

    @classmethod
    def of(cls, mapping: dict[int, tuple[bool, ...]]) -> "ValAmp":
        return tuple.__new__(cls, (tuple(sorted(mapping.items())),))

    # Combined through ``valamp_add`` and ``valamp_mul`` only.
    __add__ = __mul__ = __rmul__ = __lt__ = __le__ = __gt__ = __ge__ = undefined_operator

    @property
    def is_zero(self) -> bool:
        return not self.entries

    def as_dict(self) -> dict[int, tuple[bool, ...]]:
        return dict(self.entries)

    def __str__(self) -> str:
        if not self.entries:
            return "{}"
        bits = ",".join(
            "f%d[%s]" % (m, "".join("T" if b else "F" for b in f))
            for m, f in self.entries
        )
        return "{%s}" % bits


VAL_ZERO = ValAmp(())


def _val_or(f: tuple[bool, ...], g: tuple[bool, ...]) -> tuple[bool, ...]:
    if len(f) != len(g):
        raise InternalError(
            "valuation amplitudes disagree on a constraint-list length"
        )
    return tuple(x or y for x, y in zip(f, g))


def valamp_add(x: ValAmp, y: ValAmp) -> ValAmp:
    acc = x.as_dict()
    for m, f in y.entries:
        acc[m] = _val_or(acc[m], f) if m in acc else f
    return ValAmp.of(acc)


def valamp_mul(x: ValAmp, y: ValAmp) -> ValAmp:
    ys = y.as_dict()
    acc = {m: _val_or(f, ys[m]) for m, f in x.entries if m in ys}
    return ValAmp.of(acc)


# ---------------------------------------------------------------------------
# Semiring descriptors: one object per leaf-amplitude domain.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Semiring:
    """One leaf-amplitude domain: its zero and its operations on values.

    ``name`` and ``render`` give the domain's text form in the output
    format; ``variables`` lists the amplitude variables a value mentions.
    """

    name: str
    zero: Any
    add: Callable[[Any, Any], Any]
    mul: Callable[[Any, Any], Any]
    is_zero: Callable[[Any], bool]
    render: Callable[[Any], str]
    variables: Callable[[Any], frozenset[str]]


def _no_variables(_x) -> frozenset[str]:
    return frozenset()


# A value is zero when it equals its domain's zero, compared in C.
COMPLEX = Semiring("complex", POLY_ZERO, operator.add, operator.mul, POLY_ZERO.__eq__, str,
                   AmplitudePoly.variables)
TAG = Semiring("tag", frozenset(), operator.or_, operator.and_, operator.not_,
               _render_tag, _no_variables)
VALUATION = Semiring("valuation", VAL_ZERO, valamp_add, valamp_mul, VAL_ZERO.__eq__, str,
                     _no_variables)


# ---------------------------------------------------------------------------
# Exact arithmetic in Q(sqrt2), used to evaluate amplitude comparisons.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QSqrt2:
    """The real field Q(sqrt2): values ``p + q*sqrt2`` with exact sign tests."""

    p: Fraction
    q: Fraction = Fraction(0)

    def __add__(self, o: "QSqrt2") -> "QSqrt2":
        return QSqrt2(self.p + o.p, self.q + o.q)

    def __sub__(self, o: "QSqrt2") -> "QSqrt2":
        return QSqrt2(self.p - o.p, self.q - o.q)

    def __neg__(self) -> "QSqrt2":
        return QSqrt2(-self.p, -self.q)

    def __mul__(self, o: "QSqrt2") -> "QSqrt2":
        return QSqrt2(self.p * o.p + 2 * self.q * o.q, self.p * o.q + self.q * o.p)

    def __truediv__(self, o: "QSqrt2") -> "QSqrt2":
        norm = o.p * o.p - 2 * o.q * o.q
        if norm == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt2)")
        conj = QSqrt2(o.p / norm, -o.q / norm)
        return self * conj

    @property
    def sign(self) -> int:
        if self.p == 0 and self.q == 0:
            return 0
        if self.p >= 0 and self.q >= 0:
            return 1
        if self.p <= 0 and self.q <= 0:
            return -1
        big = self.p * self.p > 2 * self.q * self.q
        return (1 if big else -1) * (1 if self.p > 0 else -1)

    def __lt__(self, o: "QSqrt2") -> bool:
        return (self - o).sign < 0

    def __le__(self, o: "QSqrt2") -> bool:
        return (self - o).sign <= 0
