"""Exact amplitude arithmetic and the three translation semirings."""

from __future__ import annotations

import cmath
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lstaq.amplitude import (
    AC_I,
    AC_INV_SQRT2,
    AC_OMEGA,
    AC_ONE,
    AC_SQRT2,
    AC_ZERO,
    COMPLEX,
    POLY_ONE,
    POLY_ZERO,
    TAG,
    VAL_ZERO,
    VALUATION,
    AlgebraicComplex,
    AmplitudePoly,
    ExactDivisionError,
    QSqrt2,
    ValAmp,
    tag,
    valamp_add,
    valamp_mul,
)
from lstaq.amplitude import _mul_omega_poly, _sigma3, _sigma5, _sigma7
from lstaq.ast import MAX_QUBITS
from lstaq.build import translate
from lstaq.parser import parse
from tests.conftest import cpoly


# ---------------------------------------------------------------------------
# AlgebraicComplex: exact identities.
# ---------------------------------------------------------------------------


def test_omega_is_a_primitive_eighth_root():
    assert AC_OMEGA ** 2 == AC_I
    assert AC_OMEGA ** 4 == -AC_ONE
    assert AC_OMEGA ** 8 == AC_ONE


def test_sqrt2_squares_to_two():
    assert AC_SQRT2 * AC_SQRT2 == AlgebraicComplex.from_int(2)
    half = AC_ONE / AlgebraicComplex.from_int(2)
    assert AC_SQRT2 * AC_SQRT2 * half == AC_ONE


def test_omega_decomposes_over_sqrt2():
    # w = (1 + i)/sqrt2
    assert AC_OMEGA == (AC_ONE + AC_I) / AC_SQRT2


def test_division_round_trips_and_rejects_zero():
    x = AlgebraicComplex.make(3, -1, 2, 5, 2)
    y = AlgebraicComplex.make(0, 1, 0, -1, 1)
    assert (x / y) * y == x
    with pytest.raises(ExactDivisionError):
        _ = AC_ONE / AC_ZERO


def test_real_and_imag_parts_split_rational_and_sqrt2_coefficients():
    x = (AC_ONE + AC_OMEGA) / AC_SQRT2  # 1/sqrt2 + (1+i)/2
    a, b = x.real_parts()
    c, d = x.imag_parts()
    assert (a, b) == (Fraction(1, 2), Fraction(1, 2))
    assert (c, d) == (Fraction(1, 2), 0)


def test_str_is_compact():
    assert str(AC_ONE) == "1"
    assert str(-AC_ONE) == "-1"
    assert str(AC_I) == "i"
    assert str(AC_ONE / AC_SQRT2) == "1/sqrt2"
    assert str(-AC_I / AC_SQRT2) == "-i/sqrt2"
    assert str(AC_ZERO) == "0"


# ---------------------------------------------------------------------------
# AlgebraicComplex: laws and float agreement (property tests).
# ---------------------------------------------------------------------------

_small = st.integers(min_value=-3, max_value=3)
acs = st.builds(AlgebraicComplex.make, _small, _small, _small, _small,
                st.integers(min_value=0, max_value=3))


def _close(x: complex, y: complex) -> bool:
    return cmath.isclose(x, y, rel_tol=1e-9, abs_tol=1e-9)


@settings(max_examples=300)
@given(acs, acs, acs)
def test_algebraic_complex_semiring_laws(x, y, z):
    assert x + y == y + x
    assert (x + y) + z == x + (y + z)
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + AC_ZERO == x
    assert x * AC_ZERO == AC_ZERO


@settings(max_examples=300)
@given(acs, acs)
def test_algebraic_complex_tracks_floating_point(x, y):
    assert _close((x + y).to_complex(), x.to_complex() + y.to_complex())
    assert _close((x - y).to_complex(), x.to_complex() - y.to_complex())
    assert _close((x * y).to_complex(), x.to_complex() * y.to_complex())
    if not y.is_zero:
        try:
            q = x / y
        except ExactDivisionError:
            pass  # the quotient falls outside the ring; division is partial
        else:
            assert _close(q.to_complex(), x.to_complex() / y.to_complex())


# ---------------------------------------------------------------------------
# Amplitude polynomials.
# ---------------------------------------------------------------------------


def test_poly_renders_without_unit_coefficients():
    a = AmplitudePoly.var("a")
    assert str(a) == "a"
    assert str(a * AmplitudePoly.const(AC_I)) == "i * a"
    assert str(POLY_ZERO) == "0"


def _reparse(text: str) -> AmplitudePoly:
    ast = parse("{ (%s) |0> }" % text)
    return ast.segments[0].base.alternatives[0].diracs[0][0].amplitude


# Coefficients mixing a Gaussian part (a, c) with an omega part (b, d).
_mixed = st.builds(AlgebraicComplex.make, _small.filter(bool), _small, _small.filter(bool),
                   _small, st.integers(min_value=0, max_value=3))
_monomials = st.lists(st.tuples(st.sampled_from("ab"), st.integers(1, 2)),
                      min_size=0, max_size=2)
_polys = st.lists(st.tuples(st.one_of(_mixed, acs), _monomials), min_size=1, max_size=3)


def _poly_of(terms) -> AmplitudePoly:
    out = POLY_ZERO
    for coef, mono in terms:
        p = AmplitudePoly.const(coef)
        for name, exp in mono:
            p = p * AmplitudePoly.var(name) ** exp
        out = out + p
    return out


@settings(max_examples=300)
@given(_polys)
def test_poly_text_reparses_to_the_same_polynomial(terms):
    p = _poly_of(terms)
    assert _reparse(str(p)) == p


def test_mixed_coefficients_are_parenthesised():
    a = AmplitudePoly.var("a")
    half = AmplitudePoly.const(AC_ONE / AC_SQRT2)
    p = half + (POLY_ONE + half) * a  # (1 + 1/sqrt2) * a + 1/sqrt2
    assert str(p) == "1/sqrt2 + (1/sqrt2 + (1 - i) * (1 + i)/sqrt2^2) * a"
    assert _reparse(str(p)) == p


def test_poly_substitution_closes_to_constants():
    p = AmplitudePoly.var("a") * AmplitudePoly.var("a") + POLY_ONE
    v = p.substitute({"a": AC_SQRT2})
    assert v.is_constant and v.constant_value == AlgebraicComplex.from_int(3)


def test_poly_variables_and_division():
    p = AmplitudePoly.var("a") / AmplitudePoly.const(AC_SQRT2)
    assert p.variables() == frozenset({"a"})
    assert (p * AmplitudePoly.const(AC_SQRT2)) == AmplitudePoly.var("a")
    with pytest.raises(ExactDivisionError):
        _ = POLY_ONE / AmplitudePoly.var("a")


polys = st.builds(
    lambda c, name, use_var: (AmplitudePoly.var(name) * AmplitudePoly.const(c)
                              if use_var else AmplitudePoly.const(c)),
    acs, st.sampled_from("abc"), st.booleans(),
)


@settings(max_examples=200)
@given(polys, polys, polys)
def test_poly_semiring_laws(x, y, z):
    assert x + y == y + x
    assert (x + y) + z == x + (y + z)
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + POLY_ZERO == x
    assert x * POLY_ZERO == POLY_ZERO


@settings(max_examples=200)
@given(polys, polys)
def test_poly_to_complex_agrees_after_substitution(x, y):
    theta = {"a": 0.25 + 0.5j, "b": -1.0j, "c": 0.75}
    assert _close((x * y).to_complex(theta), x.to_complex(theta) * y.to_complex(theta))
    assert _close((x + y).to_complex(theta), x.to_complex(theta) + y.to_complex(theta))


# ---------------------------------------------------------------------------
# Tag amplitudes: idempotent and mutually orthogonal.
# ---------------------------------------------------------------------------

tags = st.sets(st.integers(min_value=1, max_value=5), max_size=3).map(frozenset)


def test_tag_orthogonality():
    assert TAG.mul(tag(1), tag(1)) == tag(1)
    assert TAG.mul(tag(1), tag(2)) == TAG.zero
    assert TAG.add(tag(1), tag(2)) == tag(1, 2)
    assert TAG.add(tag(1), tag(1)) == tag(1)


@settings(max_examples=200)
@given(tags, tags, tags)
def test_tag_semiring_laws(x, y, z):
    assert TAG.add(x, y) == TAG.add(y, x)
    assert TAG.add(TAG.add(x, y), z) == TAG.add(x, TAG.add(y, z))
    assert TAG.mul(x, y) == TAG.mul(y, x)
    assert TAG.mul(TAG.mul(x, y), z) == TAG.mul(x, TAG.mul(y, z))
    assert TAG.mul(x, TAG.add(y, z)) == TAG.add(TAG.mul(x, y), TAG.mul(x, z))
    assert TAG.add(x, TAG.zero) == x
    assert TAG.mul(x, TAG.zero) == TAG.zero


# ---------------------------------------------------------------------------
# Valuation-dependent amplitudes.
# ---------------------------------------------------------------------------

_WIDTHS = {1: 1, 2: 2, 3: 3}


@st.composite
def valamps(draw):
    ms = draw(st.sets(st.sampled_from([1, 2, 3]), max_size=3))
    return ValAmp.of({
        m: tuple(draw(st.booleans()) for _ in range(_WIDTHS[m])) for m in ms
    })


def test_valamp_composition_or_and_intersection():
    x = ValAmp.of({1: (True, False), 2: (False,)})
    y = ValAmp.of({1: (False, True), 3: (True, True, True)})
    assert valamp_add(x, y).as_dict() == {
        1: (True, True), 2: (False,), 3: (True, True, True)}
    assert valamp_mul(x, y).as_dict() == {1: (True, True)}
    assert valamp_mul(ValAmp.of({2: (True,)}), ValAmp.of({3: (True, True, True)})) == VAL_ZERO


@settings(max_examples=200)
@given(valamps(), valamps(), valamps())
def test_valamp_semiring_laws(x, y, z):
    assert valamp_add(x, y) == valamp_add(y, x)
    assert valamp_add(valamp_add(x, y), z) == valamp_add(x, valamp_add(y, z))
    assert valamp_mul(x, y) == valamp_mul(y, x)
    assert valamp_mul(valamp_mul(x, y), z) == valamp_mul(x, valamp_mul(y, z))
    assert valamp_mul(x, valamp_add(y, z)) == valamp_add(valamp_mul(x, y), valamp_mul(x, z))
    assert valamp_add(x, VAL_ZERO) == x
    assert valamp_mul(x, VAL_ZERO) == VAL_ZERO


# ---------------------------------------------------------------------------
# Semiring dispatch and rendering.
# ---------------------------------------------------------------------------


def test_semiring_dispatch_matches_operations():
    assert COMPLEX.add(POLY_ONE, POLY_ONE) == AmplitudePoly.from_int(2)
    assert TAG.mul(tag(2), tag(2)) == tag(2)
    assert VALUATION.zero == VAL_ZERO
    assert COMPLEX.is_zero(POLY_ZERO)
    assert TAG.render(TAG.zero) == "t0"
    assert TAG.render(tag(2, 1)) == "t1+t2"
    assert COMPLEX.variables(AmplitudePoly.var("ah")) == frozenset({"ah"})


def test_valuation_render_mentions_terms_and_truth():
    text = VALUATION.render(ValAmp.of({1: (True, False)}))
    assert "1" in text and text != ""


# ---------------------------------------------------------------------------
# Exact real field with sqrt2, used by the constraint evaluator.
# ---------------------------------------------------------------------------


def test_qsqrt2_orders_exactly_around_the_irrational():
    root2 = QSqrt2(Fraction(0), Fraction(1))
    assert QSqrt2(Fraction(7, 5)) < root2 < QSqrt2(Fraction(3, 2))
    assert (root2 * root2) == QSqrt2(Fraction(2))
    assert root2.sign == 1 and (-root2).sign == -1 and QSqrt2(Fraction(0)).sign == 0


def test_qsqrt2_division_round_trips():
    x = QSqrt2(Fraction(3, 4), Fraction(-2, 5))
    y = QSqrt2(Fraction(1, 2), Fraction(1, 3))
    assert (x / y) * y == x


@settings(max_examples=100)
@given(_polys, st.integers(min_value=0, max_value=9))
def test_poly_powers_equal_repeated_products(terms, n):
    p = _poly_of(terms)
    want = POLY_ONE
    for _ in range(n):
        want = want * p
    assert p ** n == want


def test_powers_at_the_exponent_ceiling_are_prompt():
    # Square-and-multiply: 16 squarings here, where repeated products took 65536.
    a = AmplitudePoly.var("a")
    assert (a ** MAX_QUBITS).terms == (((("a", MAX_QUBITS),), AC_ONE),)
    two = AmplitudePoly.from_int(2)
    assert (two ** MAX_QUBITS).constant_value == AlgebraicComplex.from_int(2 ** MAX_QUBITS)


# ---------------------------------------------------------------------------
# Whole powers of two: the arithmetic against its one-step-a-time form.
# ---------------------------------------------------------------------------


def _times_sqrt2(num, times):
    a, b, c, d = num
    for _ in range(times):
        a, b, c, d = b - d, a + c, b + d, c - a
    return a, b, c, d


def _make_by_steps(a, b, c, d, k=0) -> AlgebraicComplex:
    """Canonical form reached one sqrt2 factor at a time."""
    if k < 0:
        a, b, c, d = _times_sqrt2((a, b, c, d), -k)
        k = 0
    while k > 0 and (a - c) % 2 == 0 and (b - d) % 2 == 0:
        a, b, c, d = (b - d) // 2, (a + c) // 2, (b + d) // 2, (c - a) // 2
        k -= 1
    if a == b == c == d == 0:
        k = 0
    return AlgebraicComplex(a, b, c, d, k)


def _add_by_steps(x: AlgebraicComplex, y: AlgebraicComplex) -> AlgebraicComplex:
    k = max(x.k, y.k)
    p = _times_sqrt2((x.a, x.b, x.c, x.d), k - x.k)
    q = _times_sqrt2((y.a, y.b, y.c, y.d), k - y.k)
    return _make_by_steps(*(i + j for i, j in zip(p, q)), k)


def _mul_omega_by_loop(x, y):
    """The product of two numerators in Z[w], one power of w at a time."""
    out = [0, 0, 0, 0]
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            e = i + j
            coef = xi * yj
            if e >= 4:
                e -= 4
                coef = -coef
            out[e] += coef
    return out[0], out[1], out[2], out[3]


def _div_by_steps(x: AlgebraicComplex, y: AlgebraicComplex) -> AlgebraicComplex:
    """The quotient through the Galois-conjugate inverse, for every divisor."""
    u = (y.a, y.b, y.c, y.d)
    p = _mul_omega_by_loop(_sigma3(u), _mul_omega_by_loop(_sigma5(u), _sigma7(u)))
    n = _mul_omega_by_loop(u, p)[0]
    sign = 1 if n > 0 else -1
    n *= sign
    t = 0
    while n % 2 == 0:
        n //= 2
        t += 1
    if n != 1:
        return None
    inv = _make_by_steps(*(sign * v for v in p), 2 * t - y.k)
    num = _mul_omega_by_loop((x.a, x.b, x.c, x.d), (inv.a, inv.b, inv.c, inv.d))
    return _make_by_steps(*num, x.k + inv.k)


def _component(rng: random.Random) -> int:
    if rng.random() < 0.2:
        return 0
    return rng.randint(-9, 9) << rng.randint(0, 12)


def test_arithmetic_equals_its_one_step_form():
    rng = random.Random(0x5A72)
    units = [AlgebraicComplex.make(1, 0, 0, 0, k) for k in range(-3, 4)]
    units += [AC_OMEGA, AC_I, AlgebraicComplex.make(1, 1, 0, 0), AlgebraicComplex.make(3, 0, 2, 0)]
    # sqrt2, 2^h and 2^h * sqrt2, each also over sqrt2^k, which division
    # takes as a shift of k, and two negatives, which it does not.
    units += [AC_SQRT2, -AC_SQRT2, AlgebraicComplex.from_int(-2)]
    units += [AlgebraicComplex.make(1 << h, 0, 0, 0, k) for h in range(6) for k in (0, 1, 5)]
    units += [AlgebraicComplex.make(0, 1 << h, 0, -(1 << h), k)
              for h in range(6) for k in (0, 2, 5)]
    for _ in range(3000):
        num = [_component(rng) for _ in range(4)]
        k = rng.randint(-6, 30)
        x = AlgebraicComplex.make(*num, k)
        assert x == _make_by_steps(*num, k), (num, k)
        y = AlgebraicComplex.make(*[_component(rng) for _ in range(4)], rng.randint(-6, 30))
        assert x + y == _add_by_steps(x, y), (x, y)
        for u in (y, rng.choice(units)):
            if u.is_zero:
                continue
            want = _div_by_steps(x, u)
            if want is None:
                with pytest.raises(ExactDivisionError):
                    x / u
            else:
                assert x / u == want, (x, u)


_big = st.integers(min_value=-(1 << 200), max_value=1 << 200)
_numerators = st.tuples(_big, _big, _big, _big)


@settings(max_examples=300)
@given(_numerators, _numerators)
def test_omega_product_equals_its_loop_form(x, y):
    assert _mul_omega_poly(x, y) == _mul_omega_by_loop(x, y)


@pytest.mark.parametrize("text", [
    "{ 1/2^32768 |0> }",
    "{ (sqrt2^65535 + 1/sqrt2^65535) |0> }",
])
def test_whole_powers_of_two_are_prompt(text):
    t0 = time.perf_counter()
    translate([parse(text)])
    assert time.perf_counter() - t0 < 1.0


# ---------------------------------------------------------------------------
# Values are tuples that keep the behaviour of plain records.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("expr", [
    lambda: 2 * AC_ONE,
    lambda: 2 * POLY_ONE,
    lambda: VAL_ZERO + VAL_ZERO,
    lambda: VAL_ZERO * 2,
    lambda: 2 * VAL_ZERO,
    lambda: AC_ONE < AC_I,
    lambda: POLY_ZERO <= POLY_ONE,
    lambda: VAL_ZERO > VAL_ZERO,
    lambda: sorted([(0, AC_ONE), (0, AC_I)]),
])
def test_tuple_operators_are_not_lent_to_values(expr):
    with pytest.raises(TypeError):
        expr()


def test_value_reprs_name_their_fields():
    assert repr(AC_INV_SQRT2) == "AlgebraicComplex(a=1, b=0, c=0, d=0, k=1)"
    assert repr(POLY_ONE) == (
        "AmplitudePoly(terms=(((), AlgebraicComplex(a=1, b=0, c=0, d=0, k=0)),))")
    assert repr(AmplitudePoly.var("a")) == (
        "AmplitudePoly(terms=(((('a', 1),), AlgebraicComplex(a=1, b=0, c=0, d=0, k=0)),))")
    assert repr(VAL_ZERO) == "ValAmp(entries=())"
    assert repr(ValAmp.of({2: (True, False)})) == "ValAmp(entries=((2, (True, False)),))"


@pytest.mark.parametrize("cls", [AlgebraicComplex, AmplitudePoly, ValAmp])
def test_values_hash_and_compare_as_tuples(cls):
    # A Python-level __hash__ or __eq__ would run a frame on every lookup.
    assert cls.__hash__ is tuple.__hash__
    assert cls.__eq__ is tuple.__eq__
    assert cls.__ne__ is tuple.__ne__


def test_values_are_equal_by_fields_across_classes():
    assert POLY_ZERO == VAL_ZERO and hash(POLY_ZERO) == hash(VAL_ZERO)
    assert AlgebraicComplex.make(2, 0, 0, 0, 2) == AC_ONE
    assert AC_ONE / AlgebraicComplex.from_int(4) == AlgebraicComplex(1, 0, 0, 0, 4)
