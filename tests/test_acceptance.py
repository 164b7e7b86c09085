"""Acceptance gate: one test per shipped guarantee.

Each test here states a user-facing promise end to end — worked-example
fidelity, semantic soundness against the brute-force oracle, size bounds,
linear growth, algebraic laws, choice disjointness, and error reporting —
so a failure names the broken promise directly.
"""

from __future__ import annotations

import itertools
import random
import time
from statistics import linear_regression

import pytest

from lstaq import ast as A
from lstaq.amplitude import (
    COMPLEX,
    TAG,
    VAL_ZERO,
    VALUATION,
    AlgebraicComplex,
    ValAmp,
    tag,
)
from lstaq.build import (
    build_setq_lsta,
    build_state_lsta,
    filter_f,
    slice_expansions,
    translate,
)
from lstaq.cli import bench_sources, main
from lstaq.lsta import StateVector, n_leaves, tensor, union, validate
from lstaq.oracle import differential_check
from lstaq.parser import parse, parse_many
from lstaq.var_reorder import build_dependency_graph, compute_slot_order
from tests.conftest import cpoly, normalize
from tests.test_build import reference_valuation_automaton, third_case_state
from tests.test_qubit_reorder import expected_cases
from tests.test_var_reorder import S_A, S_B

T, F = True, False


# ---------------------------------------------------------------------------
# 1. The worked example reproduces exactly: slot order, projections, the
#    four-case qubit expansion, the 15-transition automaton, and the filter.
# ---------------------------------------------------------------------------


def test_worked_example_reproduces_exactly():
    job = translate([parse(f"{S_A} \\/ {S_B}")])
    setps = job.aligned.assertions[0].segments[0]

    graph = build_dependency_graph(setps, tuple(range(1, 8)))
    assert compute_slot_order(graph) == ((1, 2, 7), (3, 5, 6), (4,))

    second = setps[1]
    parts = {v.slots: v
             for (_ai, _seg, v, _table, _slices) in slice_expansions(job)
             if v.uid == second.uid}
    assert set(parts) == {(1, 2, 7), (3, 5, 6), (4,)}
    recur = parts[(1, 2, 7)]
    assert recur.terms[0].pattern[1].name == recur.terms[1].pattern[2].name
    assert [type(c).__name__ for c in recur.predicate] == ["Len"]
    ineq = parts[(3, 5, 6)]
    assert sorted(type(c).__name__ for c in ineq.predicate) == [
        "Len", "Len", "NeqVar"]
    rest = parts[(4,)]
    assert [type(c).__name__ for c in rest.terms[0].sum_constraints] == ["EqConst"]
    assert rest.predicate == ()

    ((_, table, slices),) = [
        (v, t, s) for (_ai, _seg, v, t, s) in slice_expansions(job)
        if v.uid == second.uid and v.slots == (3, 5, 6)]
    assert len(table[1]) == 2 and len(table[2]) == 1
    for sl in slices:
        cases = {tuple(b for _v, b in c.assignment): c.state for c in sl.cases}
        assert cases == expected_cases()
        assert cases[(1, 0)] == third_case_state()

    automaton = build_state_lsta(third_case_state(), VALUATION)
    validate(automaton)
    assert automaton.size == 15
    assert normalize(automaton) == normalize(reference_valuation_automaton())

    assert filter_f(ValAmp.of({2: (T,)})) == tag(2)
    assert filter_f(ValAmp.of({1: (T, T), 2: (T,)})) == tag(1, 2)
    assert filter_f(ValAmp.of({1: (T, F)})) == frozenset()
    assert filter_f(VAL_ZERO) == frozenset()


# ---------------------------------------------------------------------------
# 2. Translated languages equal the brute-force enumeration: every benchmark
#    family at n = 2..4 plus 500 randomized specifications, zero mismatches.
# ---------------------------------------------------------------------------

AMP_POOL = ("1", "1/sqrt2", "i/sqrt2", "(1+i)/2", "1/2", "a", "b", "c")


def _random_alternative(rng: random.Random, widths: list[int], fresh) -> str:
    """One set `{ term + term, ... : predicate }` over the given slot grid.

    All alternatives of a segment share one grid (a variable straddling
    another alternative's slot boundary is an alignment error), and every
    predicate variable must occur in every comma-separated member, so outer
    variables are minted only in the first member and re-placed in the rest.
    """
    predicate: list[str] = []
    outer: list[tuple[str, int]] = []
    constrained: set[str] = set()
    diracs = []
    for d in range(rng.randint(1, 2)):
        terms = []
        for t in range(rng.randint(1, 2)):
            forced: dict[int, str] = {}
            if d and t == 0:
                free = list(range(len(widths)))
                for v, w in outer:
                    k = rng.choice([k for k in free if widths[k] == w])
                    free.remove(k)
                    forced[k] = v
            atoms: list[str] = []
            mine: list[tuple[str, int]] = []
            sums: list[str] = []
            for k, w in enumerate(widths):
                if k in forced:
                    atoms.append(forced[k])
                    continue
                roll = rng.random()
                same = [v for v, vw in mine if vw == w]
                if roll < 0.2:
                    atoms.append("".join(rng.choice("01") for _ in range(w)))
                elif roll < 0.35 and same:
                    v = rng.choice(same)
                    atoms.append(f"~{v}" if rng.random() < 0.5 else v)
                elif roll < 0.45 and any(vw == w for v, vw in outer):
                    v = rng.choice([v for v, vw in outer if vw == w])
                    atoms.append(v)
                else:
                    v = fresh()
                    atoms.append(v)
                    mine.append((v, w))
                    if d == t == 0 and rng.random() < 0.4:
                        outer.append((v, w))
                        predicate.append(f"|{v}| = {w}")
                    else:
                        sums.append(f"|{v}| = {w}")
            inner = [(v, w) for v, w in mine if (v, w) not in outer]
            if inner and rng.random() < 0.35:
                v, vw = rng.choice(inner)
                if v not in constrained:
                    constrained.add(v)
                    bits = "".join(rng.choice("01") for _ in range(vw))
                    op = "=" if rng.random() < 0.3 else "!="
                    sums.append(f"{v} {op} {bits}")
            if inner and outer and rng.random() < 0.35:
                v, vw = rng.choice(inner)
                mates = [o for o, ow in outer if ow == vw and o != v]
                if mates:
                    sums.append(f"{v} != {rng.choice(mates)}")
            amp = rng.choice(AMP_POOL)
            body = f"sum[ {', '.join(sums)} ] " if sums else ""
            lead = "" if amp == "1" and rng.random() < 0.8 else f"{amp} "
            terms.append(f"{lead}{body}|{' '.join(atoms)}>")
        joiner = " - " if len(terms) > 1 and rng.random() < 0.25 else " + "
        diracs.append(joiner.join(terms))
    for v, w in outer:
        if v not in constrained and rng.random() < 0.25:
            constrained.add(v)
            bits = "".join(rng.choice("01") for _ in range(w))
            predicate.append(f"{v} != {bits}")
    body = ", ".join(diracs)
    if predicate:
        return f"{{ {body} : {', '.join(predicate)} }}"
    return f"{{ {body} }}"


def random_source(rng: random.Random) -> str:
    counter = itertools.count()

    def fresh() -> str:
        return f"v{next(counter)}"

    segments = []
    budget = 8
    for _s in range(rng.choice((1, 1, 2))):
        if budget < 1:
            break
        power = 2 if budget >= 4 and rng.random() < 0.15 else 1
        total = rng.randint(1, min(3, budget // power))
        budget -= total * power
        widths, left = [], total
        while left:
            w = min(left, rng.randint(1, 2))
            widths.append(w)
            left -= w
        alts = " \\/ ".join(
            _random_alternative(rng, widths, fresh)
            for _ in range(rng.randint(1, 2)))
        segments.append(f"{alts} ^ {power}" if power == 2 else alts)
    return " (x) ".join(segments)


def test_translation_agrees_with_the_oracle_everywhere():
    t0 = time.perf_counter()
    failures: list[str] = []

    for family in ("bv", "ghz", "grover", "groveriter", "mctoffoli"):
        for n in (2, 3, 4):
            for pre, post, joint in bench_sources(family, n):
                batches = ([parse_many(pre) + parse_many(post)] if joint
                           else [parse_many(pre), parse_many(post)])
                for asts in batches:
                    report = differential_check(asts)
                    if not report.ok:
                        failures.append(f"{family} n={n}: {report}")

    rng = random.Random(0x5E7C0DE)
    checked = 0
    while checked < 500:
        src = random_source(rng)
        report = differential_check([parse(src)])
        checked += 1
        if not report.ok:
            failures.append(f"random #{checked}: {src!r}: {report}")

    elapsed = time.perf_counter() - t0
    assert not failures, "\n".join(failures)
    assert checked == 500
    assert elapsed < 300, f"soundness sweep took {elapsed:.1f}s"


def _eq_set(rng: random.Random, widths: list[int], fresh) -> tuple[str, bool]:
    """A set whose predicate binds outer variables by ``v = bits``, and
    whether two of those bindings contradict each other."""
    outer = []
    atoms = []
    for w in widths:
        if outer and rng.random() < 0.2:
            atoms.append("".join(rng.choice("01") for _ in range(w)))
            continue
        v = fresh()
        outer.append((v, w))
        atoms.append(v)
    predicate = [f"|{v}| = {w}" for v, w in outer]
    contradictory, bindings = False, 0
    for v, w in outer:
        bound = ["".join(rng.choice("01") for _ in range(w))
                 for _ in range(rng.choice((0, 1, 1, 2)))]
        contradictory |= len(set(bound)) > 1
        bindings += len(bound)
        predicate += [f"{v} = {bits}" for bits in bound]
    if not bindings:
        v, w = outer[0]
        predicate.append(f"{v} = {'1' * w}")
    mates = [(v, u) for v, w in outer for u, x in outer if v < u and w == x]
    if mates and rng.random() < 0.3:
        predicate.append("{} != {}".format(*rng.choice(mates)))
    terms = [f"{rng.choice(AMP_POOL[:5])} |{' '.join(atoms)}>"]
    if rng.random() < 0.4:
        flipped = [f"~{a}" if a[0] == "v" else a for a in atoms]
        terms.append(f"{rng.choice(AMP_POOL[:5])} |{' '.join(flipped)}>")
    return f"{{ {' + '.join(terms)} : {', '.join(predicate)} }}", contradictory


def random_eq_source(rng: random.Random) -> tuple[str, bool]:
    """A spec with predicate ``=`` bindings, consistent or contradictory: a
    set alone, beside a satisfiable alternative, or in a tensor; and
    whether one of its sets is contradictory."""
    counter = itertools.count()

    def fresh() -> str:
        return f"v{next(counter)}"

    widths = [rng.randint(1, 2) for _ in range(rng.randint(1, 3))]
    text, contradictory = _eq_set(rng, widths, fresh)
    form = rng.choice(("alone", "union", "tensor"))
    if form == "union":
        basis = " ".join("".join(rng.choice("01") for _ in range(w)) for w in widths)
        sides = [text, f"{{ |{basis}> }}"]
        rng.shuffle(sides)
        text = " \\/ ".join(sides)
    elif form == "tensor":
        other, other_contradictory = _eq_set(rng, [rng.randint(1, 2)], fresh)
        text = f"{text} (x) {other}"
        contradictory |= other_contradictory
    return text, contradictory


def test_predicate_equalities_agree_with_the_oracle():
    rng = random.Random(0xE9E9)
    failures: list[str] = []
    contradictory = 0
    for k in range(240):
        src, bad = random_eq_source(rng)
        contradictory += bad
        report = differential_check([parse(src)])
        if not report.ok:
            failures.append(f"#{k}: {src!r}: {report}")
    assert not failures, "\n".join(failures)
    assert 40 < contradictory < 200


# ---------------------------------------------------------------------------
# 3. Size bounds hold as hard inequalities on randomized operands.
# ---------------------------------------------------------------------------


def _random_vector(rng: random.Random, n: int) -> StateVector:
    pool = ("1", "i", "1/sqrt2", "-1/sqrt2", "(1+i)/2")
    support = rng.sample(
        ["".join(bits) for bits in itertools.product("01", repeat=n)],
        rng.randint(1, min(2 ** n, 4)))
    return StateVector.of(
        n, {s: cpoly(rng.choice(pool)) for s in support}, COMPLEX)


def _random_automaton(rng: random.Random, n: int):
    members = [_random_vector(rng, n) for _ in range(rng.randint(1, 3))]
    return build_setq_lsta(members, COMPLEX)


def test_size_bounds_hold_on_randomized_operands():
    rng = random.Random(0xB0D5)
    for _ in range(200):
        n = rng.randint(1, 6)
        psi = _random_vector(rng, n)
        a = build_state_lsta(psi, COMPLEX)
        assert a.size <= (len(psi.entries) + 1) * (n + 1)

    for _ in range(100):
        n = rng.randint(1, 4)
        a, b = _random_automaton(rng, n), _random_automaton(rng, n)
        u = union(a, b)
        assert u.size <= a.size + b.size
        c = _random_automaton(rng, rng.randint(1, 3))
        t = tensor(a, c)
        assert t.size <= a.size + n_leaves(a) * c.size


# ---------------------------------------------------------------------------
# 4. Automaton size is affine in the qubit count and translation is fast.
# ---------------------------------------------------------------------------


def _bench_point(family: str, n: int) -> tuple[int, int, float]:
    qubits = size = 0
    t0 = time.perf_counter()
    for pre, post, joint in bench_sources(family, n):
        assert joint
        result = translate([parse(pre), parse(post)])
        size += sum(r.automaton.size for r in result.assertions)
        qubits = max(qubits, result.qubits)
    return qubits, size, time.perf_counter() - t0


def test_sizes_grow_linearly_and_translation_stays_fast(capsys):
    for family in ("bv", "mctoffoli"):
        xs, ys = [], []
        for n in (4, 8, 16, 32, 64, 128):
            qubits, size, seconds = _bench_point(family, n)
            xs.append(qubits)
            ys.append(size)
            if n == 128:
                assert seconds < 2.0, f"{family} n=128 took {seconds:.2f}s"
        slope, intercept = linear_regression(xs, ys)
        for x, y in zip(xs, ys):
            residual = abs(y - (slope * x + intercept)) / y
            assert residual < 0.05, (
                f"{family}: size {y} at {x} qubits is {residual:.1%} off"
                f" the affine fit {slope:.2f}*q+{intercept:.2f}")

    assert main(["bench", "grover", "32"]) == 0
    row = capsys.readouterr().out.splitlines()[1].split()
    assert row[0] == "32"
    assert float(row[4]) < 1.0, f"grover 32 translated in {row[4]}s"


# ---------------------------------------------------------------------------
# 5. The three amplitude algebras satisfy the commutative semiring laws on
#    10,000 random cases each, and exact arithmetic tracks floating point.
# ---------------------------------------------------------------------------


def _check_laws(add, mul, zero, x, y, z):
    assert add(x, y) == add(y, x)
    assert add(add(x, y), z) == add(x, add(y, z))
    assert mul(x, y) == mul(y, x)
    assert mul(mul(x, y), z) == mul(x, mul(y, z))
    assert mul(x, add(y, z)) == add(mul(x, y), mul(x, z))
    assert add(x, zero) == x
    assert mul(x, zero) == zero


def test_amplitude_algebras_satisfy_semiring_laws():
    rng = random.Random(0xA15EB5A)
    cases = 10_000

    def rand_tag():
        return frozenset(rng.sample(range(6), rng.randint(0, 4)))

    for _ in range(cases):
        _check_laws(TAG.add, TAG.mul, TAG.zero,
                    rand_tag(), rand_tag(), rand_tag())

    widths = {1: 1, 2: 2, 3: 3, 4: 2}

    def rand_val():
        picked = rng.sample(sorted(widths), rng.randint(0, 4))
        return ValAmp.of({
            m: tuple(rng.random() < 0.5 for _ in range(widths[m]))
            for m in picked})

    for _ in range(cases):
        _check_laws(VALUATION.add, VALUATION.mul, VALUATION.zero,
                    rand_val(), rand_val(), rand_val())

    def rand_alg() -> AlgebraicComplex:
        return AlgebraicComplex.make(
            rng.randint(-4, 4), rng.randint(-4, 4),
            rng.randint(-4, 4), rng.randint(-4, 4), rng.randint(0, 3))

    def close(u: complex, v: complex) -> bool:
        return abs(u - v) <= 1e-9 * max(1.0, abs(u), abs(v))

    zero = AlgebraicComplex.from_int(0)
    for _ in range(cases):
        x, y, z = rand_alg(), rand_alg(), rand_alg()
        _check_laws(lambda u, v: u + v, lambda u, v: u * v, zero, x, y, z)
        assert close((x + y).to_complex(), x.to_complex() + y.to_complex())
        assert close((x * y).to_complex(), x.to_complex() * y.to_complex())


# ---------------------------------------------------------------------------
# 6. Choice sets stay disjoint through arbitrary composition.
# ---------------------------------------------------------------------------


def test_compositions_keep_choice_sets_disjoint():
    rng = random.Random(0xD1570)
    for _round in range(8):
        n = 2
        auto = _random_automaton(rng, n)
        validate(auto)
        for _step in range(10):
            if rng.random() < 0.5:
                auto = union(auto, _random_automaton(rng, n))
            else:
                auto = tensor(auto, _random_automaton(rng, 1))
                n += 1
            validate(auto)

    for src in ("{ sum[ |i| = 2, i != 10 ] |i j> : |j| = 1 } \\/ { |0 0 0> }",
                "{ a |0 0> + b |1 1> } (x) { |0> } \\/ { |1> }"):
        for res in translate([parse(src)]).assertions:
            validate(res.automaton)


# ---------------------------------------------------------------------------
# 7. Every specification error class reports its documented exit code.
# ---------------------------------------------------------------------------

NEGATIVE_CONTROLS = [
    ("{ |0> ", 1),                                             # syntax
    ("(" * 3000 + "{ |0> }" + ")" * 3000, 1),                  # nested sets
    ("{ " + "(" * 3000 + "1" + ")" * 3000 + " |0> }", 1),      # nested amp
    ("{ sum[ i != j ] |i j> }", 2),                            # unknown length
    ("{ |i 0> : |i| = 1, |i| = 2 }", 2),                       # conflicting
    ("{ |0 0> } \\/ { |1> }", 2),                              # union widths
    ("{ |i> : |i| = 2, i != 0 }", 2),                          # operand widths
    ("{ sum[ |k| = 1 ] |0> }", 2),                             # redundant sum
    ("{ |0 0> : |p| = 2 }", 2),                                # out of scope
    ("{ |0> } ^ 0", 2),                                        # empty power
    ("{ |i> : |i| = 0 }", 2),                                  # zero width
    ("{ |0> : |k| = 1 } ;; { |0> } (x) { |0> }", 2),           # scope first
    ("{ |0> } ;; { |0> } (x) { |0> }", 3),                     # segment count
    ("{ |0> } (x) { |0 0> } ;; { |0 0> } (x) { |0> }", 3),     # segment length
    ("{ |i 0> : |i| = 2 } ;; { |0 j> : |j| = 2 }", 3),         # var overlap
    ("{ |i 0> : |i| = 2 } \\/ { |0 j> : |j| = 2 }", 3),        # overlap via union
]


# Inputs that once ended in a traceback under --check-oracle.  A comparison
# whose operand divides by zero is false (docs/language.md), so the search
# for a satisfying valuation goes on and the check completes.
ORACLE_NEGATIVE_CONTROLS = [
    ("bigU[ re(a) / im(b) > 1 ] { a |0> + b |1> }", "4 valuations agree"),
    ("bigU[ re(a) / 0 > 1 ] { a |0> + b |1> }", "3 valuations agree"),
]


def test_zero_divisors_under_the_oracle_check_are_false(tmp_path, capsys):
    for i, (src, detail) in enumerate(ORACLE_NEGATIVE_CONTROLS):
        f = tmp_path / f"div{i}.spec"
        f.write_text(src)
        got = main(["translate", str(f), "--check-oracle"])
        out, err = capsys.readouterr()
        assert got == 0, f"{src!r}: exit {got} ({err.strip()})"
        assert f"assertion 0: ok — {detail}" in out


def test_every_error_class_reports_its_exit_code(tmp_path, capsys):
    for i, (src, expected) in enumerate(NEGATIVE_CONTROLS):
        f = tmp_path / f"bad{i}.spec"
        f.write_text(src)
        got = main(["translate", str(f)])
        err = capsys.readouterr().err
        assert got == expected, (
            f"{src!r}: exit {got}, expected {expected} ({err.strip()})")
        assert "error:" in err
