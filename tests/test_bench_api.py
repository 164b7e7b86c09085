"""Every lstaq name the benchmark reaches still exists.

``perfbench/spans.py`` wraps lstaq functions looked up by module and name,
so renaming or deleting one would silently drop its layer from a traced
run, and its counters read fields of their results.  The other benchmark
files import lstaq names or read them off the package, so deleting one
would break the benchmark, ``perfbench/pin.py`` and ``tools/ab_inproc.py``.
Both are read from the source text, without importing the benchmark package.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

from lstaq.build import slice_expansions, translate
from lstaq.lsta import Internal, Leaf, write_lsta
from lstaq.parser import parse
from lstaq.qubit_reorder import expand_qubit_slices

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"


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


def _names_read() -> set[tuple[str, str, str]]:
    """``(file, module, name)`` for every lstaq name a benchmark file
    imports (``from lstaq.x import y``) or reads as an attribute of the
    package (``lstaq.translate``) or of an imported module
    (``importlib.import_module("lstaq.x").y``)."""
    out = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("lstaq"):
                out |= {(path.name, node.module, a.name) for a in node.names}
            elif isinstance(node, ast.Attribute):
                v = node.value
                if isinstance(v, ast.Name) and v.id == "lstaq":
                    out.add((path.name, "lstaq", node.attr))
                elif (isinstance(v, ast.Call) and isinstance(v.func, ast.Attribute)
                      and v.func.attr == "import_module"
                      and isinstance(v.args[0], ast.Constant)):
                    out.add((path.name, v.args[0].value, node.attr))
    return out


def test_every_name_the_benchmark_reads_resolves():
    names = _names_read()
    # Each of the three forms is seen.
    assert {("workloads.py", "lstaq", "membership"),
            ("workloads.py", "lstaq.lsta", "permute_state"),
            ("spans.py", "lstaq.amplitude", "AmplitudePoly")} <= names
    for file, module, name in names:
        assert hasattr(importlib.import_module(module), name), f"{file}: {module}.{name}"


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


def test_transition_records_compare_as_the_digest_expects():
    # perfbench/digest.py tells the kinds apart by ``hasattr(t, "left")``
    # and keys dicts and sets by transitions and their fields.
    one, two = frozenset({1}), frozenset({1, 2})
    i, j = Internal(3, one, 4, 5), Internal(3, frozenset({1}), 4, 5)
    assert (i.top, i.choices, i.left, i.right) == (3, one, 4, 5)
    assert i == j and hash(i) == hash(j)
    assert i != Internal(3, two, 4, 5) and i != Internal(3, one, 5, 4)
    leaf, same = Leaf(3, one, "a"), Leaf(3, frozenset({1}), "a")
    assert (leaf.top, leaf.choices, leaf.amplitude) == (3, one, "a")
    assert leaf == same and hash(leaf) == hash(same)
    assert leaf != Leaf(3, one, "b")
    assert not hasattr(leaf, "left") and hasattr(i, "left")
    # Not even a leaf whose fields are a prefix of the internal's.
    for a in (Leaf(3, one, 4), Leaf(3, one, (4, 5)), Leaf(3, one, "a")):
        assert a != i and i != a
    assert Internal(*i) == i and Leaf(*leaf) == leaf
    assert len({i, j, leaf, same}) == 2
