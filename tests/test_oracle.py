"""The brute-force denotation and the differential comparison loop."""

from __future__ import annotations

import dataclasses
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lstaq import ast as A
import lstaq.oracle as oracle_mod
from lstaq.amplitude import AC_ONE, COMPLEX, AlgebraicComplex, AmplitudePoly, QSqrt2
from lstaq.cli import bench_groups
from lstaq.errors import (
    CapExceededError,
    InternalError,
    LimitExceededError,
    LstaqError,
    UnboundComplexVarError,
)
from lstaq.lsta import StateVector, permute_state, substitute_state
from lstaq.oracle import (
    AssertionReport,
    DiffReport,
    _compare,
    amplitude_vars,
    ccons_eval,
    denote,
    differential_check,
    sample_thetas,
    satisfying_theta,
    varcon_holds,
)
from lstaq.parser import parse, parse_constant, parse_many
from lstaq.preprocess import canonicalize
from tests.conftest import vec
from tests.test_acceptance import ORACLE_NEGATIVE_CONTROLS, random_source

ROOT = Path(__file__).resolve().parents[1]


# ---------------------------------------------------------------------------
# Direct denotations.
# ---------------------------------------------------------------------------


def test_single_dirac_denotes_one_state():
    got = denote(parse("{ (1/sqrt2)|0 0> + (1/sqrt2)|1 1> }"))
    assert got == {vec(2, {"00": "1/sqrt2", "11": "1/sqrt2"})}


def test_tensor_power_squares_the_set():
    assert denote(parse("{ |0> } ^ 2")) == {vec(2, {"00": "1"})}
    got = denote(parse("{ |0> } \\/ { |1> } ^ 2"))
    assert got == {vec(2, {b: "1"}) for b in ("00", "01", "10", "11")}


def test_excluded_control_patterns_enumerate_members():
    got = denote(parse("{ |i 0 t> : |i| = 2, |t| = 1, i != 11 }"))
    want = {vec(4, {f"{i:02b}0{t}": "1"}) for i in range(3) for t in (0, 1)}
    assert got == want


def test_summation_collapses_each_member_to_one_vector():
    theta = {"ah": parse_constant("i/2"), "al": parse_constant("1/2")}
    got = denote(parse("{ ah |s s> + al sum[ i != s ] |s i> : |s| = 1 }"),
                 theta=theta)
    want = {
        vec(2, {"00": "i/2", "01": "1/2"}),
        vec(2, {"11": "i/2", "10": "1/2"}),
    }
    assert got == want


def test_recurrence_and_complement_bits():
    got = denote(parse("{ sum[ |v| = 2 ] |v ~v> }"))
    (psi,) = got
    assert {s for s, _ in psi.entries} == {"0011", "0110", "1001", "1100"}


def test_dead_summations_leave_zero_members():
    got = denote(parse("{ sum[ p = 0 ] |p q> : |p| = 1, |q| = 1 }"))
    assert StateVector.of(2, {}, COMPLEX) in got
    assert len(got) == 3


def test_denotation_is_invariant_under_canonicalization():
    sources = [
        "{ |i 0 0> : |i| = 2 } (x) { |0> } \\/ { |1> } ^ 2",
        "{ |00 0 i>, |11 1 i> : |i| = 1 } (x) { |0> } (x) { |0> }",
        "{ sum[ |v| = 1 ] |v ~v> } ^ 2",
    ]
    for src in sources:
        ast = parse(src)
        assert denote(ast) == denote(canonicalize(ast))


def test_enumeration_cap_is_enforced():
    with pytest.raises(CapExceededError) as exc:
        denote(parse("{ sum[ |i| = 4 ] |i i i i> }"), cap=12)
    assert exc.value.exit_code == 4


# ---------------------------------------------------------------------------
# Constraint evaluation over exact arithmetic.
# ---------------------------------------------------------------------------


def test_varcon_holds_truth_table():
    phi = {"u": "01", "v": "01", "w": "10"}
    assert varcon_holds(A.Len("u", 2), phi)
    assert not varcon_holds(A.Len("u", 3), phi)
    assert varcon_holds(A.EqConst("u", "01"), phi)
    assert varcon_holds(A.NeqConst("u", "11"), phi)
    assert not varcon_holds(A.NeqVar("u", "v"), phi)
    assert varcon_holds(A.NeqVar("u", "w"), phi)


def formula_of(src: str) -> A.CCons:
    return parse(f"bigU[ {src} ] {{ a |0> + b |1> }}").constraint


def test_ccons_eval_compares_exactly():
    theta = {"a": parse_constant("1/sqrt2"), "b": parse_constant("i/2")}
    assert ccons_eval(formula_of("|a|^2 = 1/2"), theta)
    assert ccons_eval(formula_of("im(a) = 0 && re(b) = 0"), theta)
    assert ccons_eval(formula_of("re(a) > im(b) || 1 < 0"), theta)
    assert ccons_eval(formula_of("!(|b|^2 >= |a|^2)"), theta)
    assert not ccons_eval(formula_of("2 * re(a) <= 1"), theta)
    assert ccons_eval(formula_of("5/8 < |a|^2 + |b|^2"), theta)


def test_ccons_eval_requires_bound_names():
    with pytest.raises(UnboundComplexVarError):
        ccons_eval(formula_of("re(zz) = 0"), {})


def test_a_zero_divisor_makes_its_comparison_false():
    theta = {"a": parse_constant("1"), "b": parse_constant("1")}
    for op in ("=", "!=", "<", "<=", ">", ">="):
        assert not ccons_eval(formula_of(f"re(a) / im(b) {op} 1"), theta)
        assert not ccons_eval(formula_of(f"1 {op} re(a) / (re(b) - 1)"), theta)
    assert ccons_eval(formula_of("!(re(a) / 0 > 1)"), theta)
    assert ccons_eval(formula_of("re(a) / 0 > 1 || re(a) = 1"), theta)
    theta["b"] = parse_constant("i/2")
    assert ccons_eval(formula_of("re(a) / im(b) > 1"), theta)
    c = formula_of("re(a) / im(b) > 1")
    found = satisfying_theta(c, ["a", "b"])
    assert found is not None and ccons_eval(c, found)


_ATOMS = ("re(a)", "im(a)", "|a|^2", "re(b)", "im(b)", "|b|^2",
          "0", "1", "2", "1/2", "0.5")
_arith = st.recursive(
    st.sampled_from(_ATOMS),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from("+-*/"), inner).map(
            lambda t: f"({t[0]} {t[1]} {t[2]})"),
        inner.map(lambda x: f"-{x}")),
    max_leaves=6)
_quotients = st.tuples(_arith, _arith).map(lambda t: f"{t[0]} / {t[1]}")
_comparisons = st.tuples(
    st.one_of(_quotients, _arith), st.sampled_from(["=", "!=", "<", "<=", ">", ">="]),
    st.one_of(_quotients, _arith)).map(" ".join)
_formulas = st.recursive(
    _comparisons,
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from(["&&", "||"]), inner).map(
            lambda t: f"({t[0]} {t[1]} {t[2]})"),
        inner.map(lambda f: f"!({f})")),
    max_leaves=4).filter(lambda f: "/" in f)
_values = st.sampled_from(["0", "1", "-1", "i", "1/sqrt2", "(1+i)/2", "i/2", "2"])


@settings(max_examples=300, deadline=None)
@given(_formulas, _values, _values)
def test_ccons_eval_raises_only_lstaq_errors_on_division(src, a, b):
    theta = {"a": parse_constant(a), "b": parse_constant(b)}
    try:
        assert ccons_eval(formula_of(src), theta) in (True, False)
    except LstaqError:
        pass


def test_satisfying_theta_searches_the_pool():
    c = formula_of("|a|^2 > 7/8 && im(a) = 0")
    theta = satisfying_theta(c, ["a", "b"])
    assert theta is not None and ccons_eval(c, theta)
    assert set(theta) == {"a", "b"}
    assert satisfying_theta(formula_of("|a|^2 < 0"), ["a"]) is None


def test_sample_thetas_covers_amplitude_names():
    asts = parse_many("bigU[ |ah|^2 > 1/2 ] { ah |0> + al |1> }")
    assert amplitude_vars(asts) == ["ah", "al"]
    thetas = sample_thetas(asts)
    assert len(thetas) >= 3
    assert all(set(t) == {"ah", "al"} for t in thetas)
    assert sample_thetas(parse_many("{ |0> }")) == []


def test_sample_thetas_reads_the_names_it_is_given():
    asts = parse_many("bigU[ |ah|^2 > 1/2 ] { ah |0> + al |1> } ;; { b |0> }")
    names = amplitude_vars(asts)
    assert sample_thetas(asts, names) == sample_thetas(asts)


def test_the_pool_table_holds_the_parts_of_every_pool_value():
    assert list(oracle_mod._POOL_PARTS) == list(oracle_mod._POOL)
    for v, (re, im) in oracle_mod._POOL_PARTS.items():
        assert re == QSqrt2(*v.real_parts()) and im == QSqrt2(*v.imag_parts())
    # A value outside the pool is derived as it is read.
    theta = {"a": AlgebraicComplex.make(3, 0, -1, 0, 2)}
    assert ccons_eval(formula_of("re(a) = 3/2 && im(a) = -1/2"), theta)


@pytest.mark.parametrize("source", [
    "bigU[ |ah|^2 > 1/2 ] { ah |0> + al |1> } ;; { b |0> }",
    "{ |0 0> } ;; { |1 1> }",
])
def test_differential_check_collects_the_amplitude_names_once(monkeypatch, source):
    calls = []
    real = oracle_mod.amplitude_vars
    monkeypatch.setattr(oracle_mod, "amplitude_vars",
                        lambda asts: calls.append(asts) or real(asts))
    assert differential_check(parse_many(source)).ok
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# Differential comparison.
# ---------------------------------------------------------------------------


def test_differential_check_passes_concrete_and_symbolic_specs():
    report = differential_check(parse_many(
        "{ sum[ |i| = 2, i != 10 ] |i 1> } ;; { |0 0 0> - |1 1 1> }"))
    assert report.ok
    assert all(r.ok for r in report.assertions)

    sym = differential_check(parse_many("bigU[ im(a) = 0 ] { a |0 0> + a |1 1> }"))
    assert sym.ok
    assert "valuations agree" in sym.assertions[0].detail


def test_differential_check_reports_witnesses(monkeypatch):
    import lstaq.build as build_mod

    real = build_mod.translate
    wrong = parse("{ |0 1> }")

    monkeypatch.setattr(build_mod, "translate", lambda _asts: real([wrong]))
    report = differential_check(parse_many("{ |0 0> }"))
    assert not report.ok
    assert "automaton" in report.assertions[0].detail
    assert "misses" in report.assertions[0].detail or "adds" in report.assertions[0].detail


def test_differential_check_checks_each_assertion_once(monkeypatch):
    # The oracle reads the lengths translate inferred and checked.
    calls = []

    def counted(name):
        real = getattr(A, name)

        def call(*args):
            calls.append((name, args[0]))
            return real(*args)
        return call

    for name in ("infer_lengths", "check_well_formed"):
        monkeypatch.setattr(A, name, counted(name))
    asts = parse_many("{ sum[ |i| = 2, i != 10 ] |i 1> } ;; { |0 0 0> - |1 1 1> }")
    assert differential_check(asts).ok
    for name in ("infer_lengths", "check_well_formed"):
        on_sources = [ast for called, ast in calls
                      if called == name and any(ast is x for x in asts)]
        assert len(on_sources) == 2, name


def test_lengths_spanning_another_qubit_count_are_an_internal_error(monkeypatch):
    import lstaq.build as build_mod

    real = build_mod.translate
    monkeypatch.setattr(build_mod, "translate", lambda asts: dataclasses.replace(
        real(asts), source_lengths=({"i": 3},)))
    with pytest.raises(InternalError) as err:
        differential_check(parse_many("{ |i 0> : |i| = 2 }"))
    assert str(err.value) == "assertion 0's lengths span 4 qubits, not the translation's 3"


def test_compare_ignores_zero_members_on_both_sides():
    zero = StateVector.of(1, {}, COMPLEX)
    ok, detail = _compare({zero, vec(1, {"0": "1"})}, {vec(1, {"0": "1"})})
    assert ok and "1 members" in detail
    ok, _ = _compare({zero}, set())
    assert ok


def test_report_renders_one_line_per_assertion():
    report = differential_check(parse_many("{ |0> } ;; { |1> }"))
    lines = str(report).splitlines()
    assert len(lines) == 2 and all("ok" in ln for ln in lines)


def test_compare_refuses_a_coefficient_too_long_to_write():
    big = StateVector.of(1, {"0": AmplitudePoly.const(
        AlgebraicComplex.from_int(2 ** 20000))}, COMPLEX)
    with pytest.raises(LimitExceededError, match="too long to write in decimal"):
        _compare({big}, set())


# ---------------------------------------------------------------------------
# The exact symbolic comparison against the per-valuation reference.
# ---------------------------------------------------------------------------


def _ref_compare(lang, oracle) -> tuple[bool, str]:
    lhs = {s for s in lang if not s.is_zero}
    rhs = {s for s in oracle if not s.is_zero}
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


def _ref_differential_check(asts, thetas=None, cap: int = 12) -> DiffReport:
    """The check by substitution alone: every symbolic assertion is
    compared under each sampled valuation, whatever its symbolic sets."""
    from lstaq.build import translate
    from lstaq.lsta import enumerate_language

    asts = list(asts)
    result = translate(asts)
    n = result.qubits
    if n > cap:
        raise CapExceededError(n, cap)
    names = amplitude_vars(asts)
    if thetas is None:
        thetas = sample_thetas(asts)
    reports = []
    for i, (ast, ar) in enumerate(zip(asts, result.assertions)):
        auto = enumerate_language(ar.automaton, n)
        oracle = {permute_state(s, result.permutation)
                  for s in denote(ast, cap=cap)}
        if not names:
            ok, detail = _ref_compare(auto, oracle)
        else:
            ok, detail = True, "no valuations sampled"
            for theta in thetas:
                li = {substitute_state(s, theta) for s in auto}
                oi = {substitute_state(s, theta) for s in oracle}
                ok, detail = _ref_compare(li, oi)
                if not ok:
                    pretty = ", ".join(
                        f"{k}={v}" for k, v in sorted(theta.items()))
                    detail += f" (theta: {pretty})"
                    break
            else:
                detail = f"{len(thetas)} valuations agree"
        reports.append(AssertionReport(i, ok, detail))
    return DiffReport(all(r.ok for r in reports), tuple(reports))


@pytest.fixture
def substitutions(monkeypatch) -> list:
    """Counts the states ``differential_check`` substitutes."""
    calls: list = []

    def counted(psi, theta):
        calls.append(psi)
        return substitute_state(psi, theta)

    monkeypatch.setattr(oracle_mod, "substitute_state", counted)
    return calls


def _sweep_inputs(monkeypatch) -> list[list[str]]:
    """Assertion batches: the families at n=2..4, 300 random specs, the
    ``verify`` benchmark's checks at one seed, the oracle negative controls."""
    batches: list[list[str]] = []
    for family in ("bv", "ghz", "grover", "groveriter", "mctoffoli"):
        for n in (2, 3, 4):
            batches += bench_groups(family, n)
    rng = random.Random(0xD1FF)
    batches += [[random_source(rng)] for _ in range(300)]
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from workloads import draw_inputs

    batches += [list(texts) for spec in draw_inputs("verify", 16)
                if spec.kind == "check" for texts in spec.groups]
    batches += [[src] for src, _detail in ORACLE_NEGATIVE_CONTROLS]
    return batches


def test_exact_comparison_reports_as_the_valuation_loop(monkeypatch, substitutions):
    symbolic = 0
    for texts in _sweep_inputs(monkeypatch):
        asts = [a for t in texts for a in parse_many(t)]
        want = _ref_differential_check(asts)
        substitutions.clear()
        got = differential_check(asts)
        assert got == want, texts
        if amplitude_vars(asts):
            symbolic += 1
        # Every input here is sound, so its symbolic sets are equal and
        # the verdict needs no valuation.
        assert got.ok and not substitutions, texts
    assert symbolic >= 100


def _check_translating(monkeypatch, translated: str, spec: str, thetas=None):
    """Reports of both checks on ``spec`` when the pipeline translates
    ``translated`` in its place."""
    import lstaq.build as build_mod

    real = build_mod.translate
    monkeypatch.setattr(build_mod, "translate", lambda _asts: real([parse(translated)]))
    asts = parse_many(spec)
    return differential_check(asts, thetas), _ref_differential_check(asts, thetas)


def test_a_symbolic_mismatch_falls_back_to_the_valuations(monkeypatch, substitutions):
    got, want = _check_translating(monkeypatch, "{ 2*a |0> }", "{ a |0> }")
    assert got == want
    assert not got.ok and "(theta: a=" in got.assertions[0].detail
    assert substitutions


def test_symbolic_sets_that_differ_are_decided_by_the_valuations(
        monkeypatch, substitutions):
    got, want = _check_translating(monkeypatch, "{ a^2 |0> }", "{ a |0> }",
                                   thetas=[{"a": AC_ONE}])
    assert got == want
    assert got.ok and got.assertions[0].detail == "1 valuations agree"
    assert substitutions


def test_an_unbound_name_still_raises_under_equal_sets():
    asts = parse_many("{ a |0> + b |1> }")
    for check in (differential_check, _ref_differential_check):
        with pytest.raises(UnboundComplexVarError, match="'b'"):
            check(asts, [{"a": AC_ONE}])
    assert differential_check(asts, []) == _ref_differential_check(asts, [])
    assert differential_check(asts, []).assertions[0].detail == "0 valuations agree"
