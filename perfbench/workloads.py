"""The three workloads: their jobs, the checks on every output, and pins.

A *job* is one unit of work, timed on its own:

* ``wide``: translate one family's pre and post at one size and write the
  automata (for ``ghz`` the two sides one after the other; for
  ``mctoffoli`` its four pairs).  The output must be byte-identical to the
  set-up translation, whose transition counts and digests must equal the
  pinned values.
* ``cases``: translate one pre/post pair of constraint graphs together and
  write the automata; checked like ``wide``.  The differential check
  against the oracle runs once per pair, outside the timed region.
* ``verify``: either one ``differential_check`` (a random spec or a
  family instance), whose report must be ok, or one ``membership``
  verdict, which must equal the oracle's answer.

Every job calls lstaq through attribute lookups on the package at call
time, so the traced run sees the wrapped functions.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from inputs import (FAMILIES, FORMS, draw_graph_pair, family_sources,
                    random_spec)

PINS = Path(__file__).with_name("pins.json")

WIDE_SIZES = (32, 64)
# Graphs per pass at each variable count.  The mix puts the median job
# among the 6-variable graphs and the 90th percentile among the 8-variable
# ones, each away from a class boundary, so a new seed cannot move either
# percentile into a neighbouring class.
CASES_MIX = {5: 3, 6: 3, 7: 2, 8: 2}
VERIFY_SIZES = (2, 3, 4)
# Random specs per pass at each qubit count, each form of inputs.FORMS
# equally often.  Many small specs rather than a few large ones: from 4
# qubits up, one spec's check time varies by up to 200 times between
# draws, so a handful of them would decide the pass time and make it
# depend on the seed.  The families at n=2..4 check up to 13 qubits.
RANDOM_MIX = {1: 128, 2: 128, 3: 64}
# Automata at 9-13 qubits that membership verdicts run on, with the number
# of oracle members checked: evenly spaced over the sorted members, each
# followed by one seeded perturbation that the oracle rejects.
VERDICT_SPECS = (
    ("bv", 4, 0, 2), ("bv", 4, 1, 2), ("mctoffoli", 5, 0, 2),
    ("grover", 4, 1, 4), ("groveriter", 4, 0, 4), ("bv", 5, 1, 2),
    ("mctoffoli", 6, 0, 1), ("bv", 6, 1, 1),
)


@dataclass
class Job:
    label: str
    qubits: int          # qubits of the translation(s) the job works on
    transitions: int     # transitions the job's translations emit
    group: str | None    # "small"/"large" side of growth_ratio, if any
    run: Callable[[], bool]   # does the work; True when the output is right


@dataclass
class Bench:
    jobs: list[Job]
    # Checks run once after the timed set-up; each returns a list of errors.
    checks: list[Callable[[], list[str]]]
    # Inputs whose warm-up raised, by label, exception and text.
    errors: list[str]


def group_key(texts) -> str:
    return "\n;;\n".join(texts)


def compile_group(lstaq, texts):
    """Parse and translate one group of assertions and write the automata."""
    result = lstaq.translate([lstaq.parse(t) for t in texts])
    autos = [ar.automaton for ar in result.assertions]
    return result, autos, [lstaq.write_lsta(a, result.qubits) for a in autos]


def _translate_job(lstaq, label, groups, group) -> tuple[Job, list]:
    """A translate-and-write job; the first run here is its warm-up."""
    expected: list[str] = []
    autos: list = []
    qubits = 0
    for texts in groups:
        result, a, written = compile_group(lstaq, texts)
        expected += written
        autos += a
        qubits += result.qubits

    def run() -> bool:
        out: list[str] = []
        for texts in groups:
            out += compile_group(lstaq, texts)[2]
        return out == expected

    job = Job(label, qubits, sum(a.size for a in autos), group, run)
    return job, expected


def _output_check(lstaq, groups, expected, pinned=None):
    """Translate ``groups`` again: the written bytes must equal the set-up
    output, and with ``pinned`` each automaton's transition count and digest
    must equal the pinned pair."""
    from digest import digest

    def check() -> list[str]:
        again: list[str] = []
        got: list = []
        for texts in groups:
            _result, autos, written = compile_group(lstaq, texts)
            again += written
            got += [[a.size, digest(a)] for a in autos]
        errors = []
        if again != expected:
            errors.append(f"translation is not deterministic: {groups!r}")
        if pinned is not None:
            want = [p for texts in groups for p in pinned(texts)]
            if got != want:
                errors.append(f"{groups!r}: got {got}, pinned {want}")
        return errors
    return check


def load_pins() -> dict:
    return json.loads(PINS.read_text())


def wide_groups(family: str, n: int) -> list[list[str]]:
    groups = []
    for pre, post, joint in family_sources(family, n):
        groups += [[pre, post]] if joint else [[pre], [post]]
    return groups


@dataclass(frozen=True)
class Spec:
    """One job's inputs, drawn without calling lstaq."""

    kind: str                 # "translate", "check" or "verdict"
    label: str
    groups: tuple[tuple[str, ...], ...]
    group: str | None = None  # side of growth_ratio
    count: int = 0            # members checked, for "verdict"


def _groups(gs) -> tuple[tuple[str, ...], ...]:
    return tuple(tuple(g) for g in gs)


def draw_inputs(workload: str, seed: int) -> list[Spec]:
    """Every job's input texts for ``workload``; equal seeds, equal texts."""
    rng = random.Random(seed)
    specs: list[Spec] = []
    if workload == "wide":
        for n in WIDE_SIZES:
            side = "small" if n == WIDE_SIZES[0] else "large"
            specs += [Spec("translate", f"{f}/{n}", _groups(wide_groups(f, n)),
                           side) for f in FAMILIES]
    elif workload == "cases":
        largest = max(CASES_MIX)
        for k, count in CASES_MIX.items():
            side = {largest: "large", largest - 1: "small"}.get(k)
            specs += [Spec("translate", f"k{k}/{i}",
                           _groups([draw_graph_pair(rng, k)]), side)
                      for i in range(count)]
    elif workload == "verify":
        for family in FAMILIES:
            for n in VERIFY_SIZES:
                side = {VERIFY_SIZES[0]: "small",
                        VERIFY_SIZES[-1]: "large"}.get(n)
                specs.append(Spec("check", f"check/{family}/{n}",
                                  _groups(wide_groups(family, n)), side))
        for q, count in RANDOM_MIX.items():
            specs += [Spec("check", f"check/random/q{q}/{i}",
                           ((random_spec(rng, q, FORMS[i % len(FORMS)]),),))
                      for i in range(count)]
        for family, n, side, count in VERDICT_SPECS:
            text = family_sources(family, n)[0][side]
            specs.append(Spec("verdict", f"{family}/{n}/{side}",
                              ((text,),), None, count))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(specs)
    return specs


def _oracle_check(lstaq, batches):
    def check() -> list[str]:
        errors = []
        for texts in batches:
            report = lstaq.differential_check([lstaq.parse(t) for t in texts])
            if not report.ok:
                errors.append(f"{group_key(texts)!r}: {report}")
        return errors
    return check


def _check_job(lstaq, spec: Spec) -> tuple[Job, list[str]]:
    """A differential-check job over one or more assertion batches."""
    qubits = transitions = 0
    expected: list[str] = []
    for texts in spec.groups:
        result, autos, written = compile_group(lstaq, texts)
        qubits += result.qubits
        transitions += sum(a.size for a in autos)
        expected += written

    def run() -> bool:
        return all(
            lstaq.differential_check([lstaq.parse(t) for t in texts]).ok
            for texts in spec.groups)

    run()
    return Job(spec.label, qubits, transitions, spec.group, run), expected


def perturb(lstaq, rng: random.Random, psi, members):
    """A one-bit or one-amplitude change of ``psi`` that is not a member.

    Candidates are drawn from ``rng`` until the oracle's member set
    rejects one, so the expected verdict is the oracle's answer.
    """
    entries = dict(psi.entries)
    keys = sorted(entries)
    for _ in range(1000):
        e = dict(entries)
        s = rng.choice(keys)
        if rng.random() < 0.5:
            j = rng.randrange(psi.n)
            t = s[:j] + ("1" if s[j] == "0" else "0") + s[j + 1:]
            if t in e:
                continue
            e[t] = e.pop(s)
        else:
            e[s] = -e[s]
        cand = lstaq.StateVector(psi.n, tuple(sorted(e.items())))
        if cand not in members:
            return cand
    raise ValueError(f"no perturbation of {psi} leaves the member set")


def _verdict_jobs(lstaq, rng, spec: Spec) -> tuple[list[Job], list[str]]:
    """Membership verdicts on evenly spaced oracle members of one automaton,
    each followed by a seeded perturbation the oracle rejects."""
    from lstaq.lsta import permute_state

    ((text,),) = spec.groups
    ast = lstaq.parse(text)
    result, (aut,), written = compile_group(lstaq, (text,))
    members = sorted((permute_state(s, result.permutation)
                      for s in lstaq.denote(ast, cap=result.qubits)), key=str)
    member_set = frozenset(members)
    step = len(members) / spec.count
    jobs = []
    for i in range(spec.count):
        psi = members[int(i * step)]
        for kind, cand in (("member", psi),
                           ("non-member", perturb(lstaq, rng, psi, member_set))):
            expected = cand in member_set

            def run(cand=cand, expected=expected) -> bool:
                return lstaq.membership(aut, cand) == expected

            run()
            jobs.append(Job(f"{kind}/{spec.label}/{i}", result.qubits, 0,
                            None, run))
    return jobs, written


def build(lstaq, workload: str, seed: int) -> Bench:
    """Draw the inputs and run every job once (the warm-up pass).

    The warm-up output is what later runs of each job must reproduce.  A
    spec whose warm-up raises still becomes a job, which fails each time it
    runs, so a seeded draw that hits a crash shows in the error count.
    """
    pins = load_pins()
    perturb_rng = random.Random(f"{seed}/perturb")
    jobs: list[Job] = []
    checks: list[Callable[[], list[str]]] = []
    errors: list[str] = []
    for spec in draw_inputs(workload, seed):
        groups = spec.groups
        pinned = None
        try:
            if spec.kind == "translate":
                job, expected = _translate_job(lstaq, spec.label, groups,
                                               spec.group)
                jobs.append(job)
                if workload == "wide":
                    pinned = lambda texts: pins["wide"].get(group_key(texts), [])
                else:
                    pinned = lambda texts: [pins["cases"].get(t) for t in texts]
                    checks.append(_oracle_check(lstaq, groups))
            elif spec.kind == "check":
                job, expected = _check_job(lstaq, spec)
                jobs.append(job)
            else:
                more, expected = _verdict_jobs(lstaq, perturb_rng, spec)
                jobs += more
        except Exception as exc:  # a crash of lstaq on a drawn input
            errors.append(f"{spec.label}: {type(exc).__name__}: {exc}: "
                          f"{groups!r}")

            def rerun(groups=groups) -> bool:
                for texts in groups:
                    compile_group(lstaq, texts)
                return False
            jobs.append(Job(spec.label, 0, 0, spec.group, rerun))
            continue
        checks.append(_output_check(lstaq, groups, expected, pinned))
    return Bench(jobs, checks, errors)
