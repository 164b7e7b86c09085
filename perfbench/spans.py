"""In-memory span recorder wrapped around lstaq's public functions.

A span holds a layer name, its start and end on :data:`CLOCK`, the
index of the span that was open when it began (its parent, or -1) and the
id of the benchmark job it belongs to.  Spans stay in a list until the run
ends.  A layer's self time is the time its spans cover minus the part of
that time their child spans cover.

Functions are wrapped under every name their callers look them up by: a
module that did ``from .lsta import validate`` holds its own reference, so
the wrapper replaces the function in every loaded ``lstaq`` module whose
namespace holds it.  Otherwise calls nested inside ``tensor``, ``union`` or
``differential_check`` would be missed.
"""

from __future__ import annotations

import functools
import gc
import json
import sys
import time
from collections import defaultdict

# The process's CPU clock.  lstaq is single-threaded and does no I/O, so on
# an idle machine its CPU time is its wall time; on a shared machine CPU
# time leaves out the time the process waits for a processor, which other
# tenants decide and which made wall-clock job times vary by a quarter
# between repeats of one job.
CLOCK = time.process_time

# Layer name -> (module, public functions) wrapped with a span.
LAYERS: dict[str, tuple[str, tuple[str, ...]]] = {
    "parser": ("lstaq.parser", ("parse", "parse_many")),
    "ast": ("lstaq.ast", ("infer_lengths", "check_well_formed")),
    "preprocess": ("lstaq.preprocess", (
        "canonicalize", "tensor_alignment_check",
        "variable_alignment_check", "constant_abstraction")),
    "var_reorder": ("lstaq.var_reorder", (
        "build_dependency_graph", "compute_slot_order", "project_setP")),
    "qubit_reorder": ("lstaq.qubit_reorder", ("expand_qubit_slices",)),
    "build.translate": ("lstaq.build", ("translate",)),
    "build.state": ("lstaq.build", ("build_state_lsta", "build_setq_lsta")),
    "lsta.tensor": ("lstaq.lsta", ("tensor",)),
    "lsta.union": ("lstaq.lsta", ("union",)),
    "lsta.validate": ("lstaq.lsta", ("validate",)),
    "lsta.map_leaves": ("lstaq.lsta", ("map_leaves",)),
    "lsta.write": ("lstaq.lsta", ("write_lsta",)),
    "lsta.enumerate": ("lstaq.lsta", ("enumerate_language",)),
    "lsta.membership": ("lstaq.lsta", ("membership",)),
    "lsta.substitute_state": ("lstaq.lsta", ("substitute_state",)),
    "oracle.denote": ("lstaq.oracle", ("denote",)),
    "oracle.sample_thetas": ("lstaq.oracle", ("sample_thetas",)),
    "oracle.check": ("lstaq.oracle", ("differential_check",)),
}


def _count_sizes(key):
    def count(counts, args, out):
        counts[key] += sum(a.size for a in args[:2])
    return count


def _count_slices(counts, args, out):
    counts["qubit_reorder.slice_cases"] += sum(len(s.cases) for s in out[1])


def _count_bytes(counts, args, out):
    counts["lsta.bytes_out"] += len(out.encode())


def _count_peak(counts, args, out):
    for ar in out.assertions:
        for key, value in ar.stats.items():
            if key.startswith("size_") and key.endswith("_max"):
                counts["build.peak_transitions"] = max(
                    counts["build.peak_transitions"], value)


# Function name -> counter update run on its arguments and result.
COUNTERS = {
    "tensor": _count_sizes("lsta.tensor_in_transitions"),
    "union": _count_sizes("lsta.union_in_transitions"),
    "validate": _count_sizes("lsta.validate_transitions"),
    "expand_qubit_slices": _count_slices,
    "write_lsta": _count_bytes,
    "translate": _count_peak,
}


class Recorder:
    """Spans and counters of one traced run; :meth:`install` wraps lstaq."""

    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list[int] = []
        self.job = -1
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._undo: list = []
        self._gc_start = 0.0

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, CLOCK(), 0.0, parent, self.job])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = CLOCK()
        self.stack.pop()

    def _wrap(self, name: str, fn, count):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = rec.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec.close(idx)
            if count is not None:
                count(rec.counts, args, out)
            return out
        return wrapper

    def _replace(self, original, wrapper) -> None:
        for mod in [m for k, m in sys.modules.items()
                    if k == "lstaq" or k.startswith("lstaq.")]:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, original))

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = CLOCK()
            return
        self.counts["runtime.gc_s"] += CLOCK() - self._gc_start
        if info.get("generation") == 2:
            self.counts["runtime.gc_gen2"] += 1

    def install(self) -> None:
        import importlib

        for layer, (module, names) in LAYERS.items():
            mod = importlib.import_module(module)
            for fname in names:
                fn = getattr(mod, fname)
                self._replace(fn, self._wrap(layer, fn, COUNTERS.get(fname)))
        poly = importlib.import_module("lstaq.amplitude").AmplitudePoly
        substitute = poly.substitute
        counts = self.counts

        def counted(self_, theta):
            counts["amplitude.poly_substitute_calls"] += 1
            return substitute(self_, theta)
        poly.substitute = counted
        self._undo.append((poly, "substitute", substitute))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def write(self, path) -> None:
        """Write every span as one JSON line: name, start, end, parent, job."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans) -> dict[str, tuple[float, int]]:
    """Per name: total self time and number of spans.

    A span's self time is its duration minus the union of its children's
    intervals clipped to the span, so overlapping or stray children are
    never subtracted twice.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, _job in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out: dict[str, list] = defaultdict(lambda: [0.0, 0])
    for idx, (name, start, end, _parent, _job) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(idx, ())):
            lo, hi = max(c_start, cursor), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[name][0] += (end - start) - covered
        out[name][1] += 1
    return {name: (v[0], v[1]) for name, v in out.items()}
