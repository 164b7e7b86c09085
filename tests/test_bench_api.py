"""Every function the benchmark's tracer wraps by name still exists.

``perfbench/spans.py`` wraps lstaq functions looked up by module and name,
so renaming or deleting one would silently drop its layer from a traced
run, and its counters read fields of their results.  The table is read
from the source text, without importing the benchmark package.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

from lstaq.build import slice_expansions, translate
from lstaq.lsta import write_lsta
from lstaq.parser import parse
from lstaq.qubit_reorder import expand_qubit_slices

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _layers() -> dict[str, tuple[str, tuple[str, ...]]]:
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "LAYERS" for t in targets):
                return ast.literal_eval(node.value)
    raise AssertionError(f"no LAYERS table in {SPANS}")


def test_every_traced_function_resolves():
    layers = _layers()
    assert layers
    for layer, (module, names) in layers.items():
        mod = importlib.import_module(module)
        for name in names:
            assert callable(getattr(mod, name, None)), f"{layer}: {module}.{name}"


def test_counted_results_keep_their_shapes():
    # The shapes the COUNTERS of perfbench/spans.py read.
    result = translate([parse("{ sum[ |i| = 2, i != 01 ] |i j> : |j| = 1 }")])
    for ar in result.assertions:
        assert isinstance(ar.automaton.size, int)
        assert {k for k in ar.stats
                if k.startswith("size_") and k.endswith("_max")} == {
            "size_slice_max", "size_setv_max", "size_setp_max",
            "size_segment_max"}
    (_ai, _seg, v, _table, _slices) = next(slice_expansions(result))
    out = expand_qubit_slices(v, result.aligned.lengths)
    assert len(out) == 2
    assert out[1] and all(len(s.cases) >= 1 for s in out[1])
    text = write_lsta(result.assertions[0].automaton, result.qubits)
    assert isinstance(text, str)
