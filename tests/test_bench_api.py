"""Every function the benchmark's tracer wraps by name still exists.

``perfbench/spans.py`` wraps lstaq functions looked up by module and name,
so renaming or deleting one would silently drop its layer from a traced
run.  The table is read from the source text, without importing the
benchmark package.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

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
