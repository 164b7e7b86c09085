"""Tests of the benchmark itself: inputs, self times and the digest.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

import lstaq  # noqa: E402
from lstaq.amplitude import COMPLEX, AmplitudePoly  # noqa: E402
from lstaq.lsta import Internal, Leaf, Lsta, mk_lsta  # noqa: E402
from lstaq.parser import parse_constant  # noqa: E402

from digest import digest  # noqa: E402
from spans import Recorder, self_times  # noqa: E402
from workloads import draw_inputs  # noqa: E402


@pytest.mark.parametrize("workload", ["wide", "cases", "verify"])
def test_same_seed_gives_byte_identical_inputs(workload):
    first = repr(draw_inputs(workload, 11)).encode()
    assert first == repr(draw_inputs(workload, 11)).encode()
    if workload != "wide":
        assert first != repr(draw_inputs(workload, 12)).encode()


def test_self_time_subtracts_only_the_time_children_cover():
    # job [0,10] > tensor [1,5] > validate [2,3]; job > union [6,7];
    # a second child of tensor [2.5,4] overlaps validate by half a second.
    spans = [
        ["job", 0.0, 10.0, -1, 0],
        ["lsta.tensor", 1.0, 5.0, 0, 0],
        ["lsta.validate", 2.0, 3.0, 1, 0],
        ["lsta.union", 6.0, 7.0, 0, 0],
        ["lsta.validate", 2.5, 4.0, 1, 0],
    ]
    got = self_times(spans)
    assert got["job"] == pytest.approx((10.0 - 4.0 - 1.0, 1))
    assert got["lsta.tensor"] == pytest.approx((4.0 - 2.0, 1))
    assert got["lsta.validate"] == pytest.approx((1.0 + 1.5, 2))
    assert got["lsta.union"] == pytest.approx((1.0, 1))
    total = sum(v[0] for v in got.values())
    assert total == pytest.approx(10.0 + 0.5)  # the overlap counts twice


def _amp(text: str) -> AmplitudePoly:
    return AmplitudePoly.const(parse_constant(text))


def _automaton(rename) -> Lsta:
    one = frozenset({1})
    return mk_lsta(
        COMPLEX, rename(0),
        [Internal(rename(0), one, rename(1), rename(2)),
         Internal(rename(0), frozenset({2}), rename(2), rename(3)),
         Internal(rename(1), one, rename(4), rename(5)),
         Internal(rename(2), one, rename(6), rename(6)),
         Internal(rename(3), one, rename(7), rename(8))],
        [Leaf(rename(4), one, _amp("1/sqrt2")),
         Leaf(rename(5), one, _amp("-1/sqrt2")),
         Leaf(rename(6), one, _amp("0")),
         Leaf(rename(7), one, _amp("i/sqrt2")),
         Leaf(rename(8), one, _amp("-i/sqrt2"))])


def test_digest_does_not_change_when_states_are_renamed():
    base = digest(_automaton(lambda q: q))
    for seed in range(5):
        perm = list(range(100, 109))
        random.Random(seed).shuffle(perm)
        assert digest(_automaton(lambda q: perm[q])) == base


def test_digest_tells_different_automata_apart():
    a = _automaton(lambda q: q)
    leaves = tuple(Leaf(t.top, t.choices, _amp("1/2")) if t.top == 4 else t
                   for t in a.leaves)
    changed = Lsta(a.semiring, a.states, a.root, a.internal, leaves)
    assert digest(changed) != digest(a)


def test_recorder_sees_calls_nested_in_the_pipeline():
    rec = Recorder()
    rec.install()
    try:
        lstaq.translate([lstaq.parse("{ |0 i> : |i| = 2 } (x) { |1> }")])
    finally:
        rec.uninstall()
    names = [s[0] for s in rec.spans]
    parents = {names[s[3]] for s in rec.spans
               if s[0] == "lsta.validate" and s[3] >= 0}
    assert "lsta.tensor" in parents and "build.state" in parents
    assert "parser" in names and "build.translate" in names
    assert rec.counts["lsta.tensor_in_transitions"] > 0
    assert lstaq.translate.__name__ == "translate"
    assert not hasattr(lstaq.translate, "__wrapped__")


def test_reported_metrics_are_the_declared_ones():
    import json

    from run import end_to_end, per_layer
    from workloads import Job

    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    jobs = [Job("a", 4, 10, "small", lambda: True),
            Job("b", 8, 20, "large", lambda: True)]
    times = [[0.01, 0.02, 0.03], [0.04, 0.05, 0.06]]
    run = {"times": times, "passes": 3, "probe_s": 0.01}
    got = set(end_to_end(jobs, run)) | {"setup_s"}
    assert got == {m["name"] for m in declared["end_to_end"]}

    rec = Recorder()
    rec.spans = [["job", 0.0, 1.0, -1, 0], ["lsta.tensor", 0.1, 0.5, 0, 0]]
    got = per_layer(rec, run, run)
    assert set(got) == {m["name"] for m in declared["per_layer"]}
    units = {m["name"]: m["unit"] for m in declared["per_layer"]}
    assert {k: u for k, (_v, u) in got.items()} == units
    assert got["lsta.tensor_self_s"][0] == pytest.approx(0.4 / 3)
