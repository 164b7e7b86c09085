"""``tools/stage_times.py`` prints each pipeline stage's time per pass."""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Stages every checkout since the tool was written has, in pipeline order.
IN_ORDER = ["parse", "infer_lengths", "check_well_formed", "canonicalize",
            "tensor_alignment_check", "variable_alignment_check",
            "constant_abstraction", "project_setP", "expand_qubit_slices",
            "build_setq_lsta", "tensor_chain", "map_leaves", "union_all",
            "validate", "measure", "oracle._denote", "enumerate_language",
            "sample_thetas"]


def test_stage_times_prints_every_stage_on_one_verify_pass():
    run = subprocess.run([sys.executable, str(ROOT / "tools" / "stage_times.py"),
                          "--workload", "verify", "--seed", "3", "--passes", "1"],
                         capture_output=True, text=True, timeout=300, check=True)
    title, header, *rows, total = run.stdout.splitlines()
    assert re.fullmatch(r"verify, seed 3, \d+ jobs a pass, 1 passes, inclusive CPU time",
                        title)
    assert header.split() == ["stage", "ms/pass", "share", "calls/pass"]
    labels = [row.split()[0] for row in rows]
    assert [label for label in labels if label in IN_ORDER] == IN_ORDER
    cells = {row.split()[0]: row.split()[1:] for row in rows}
    for ms, share, calls in cells.values():
        assert float(ms) >= 0 and share.endswith("%") and int(calls) >= 0
    for stage in ("parse", "infer_lengths", "tensor_chain", "oracle._denote"):
        assert int(cells[stage][2]) > 0, stage
    assert cells["FreshNamer.for_asts"][2] == "0"
    assert cells["check_inferable"][2] == "0"
    name, ms, share = total.split()
    assert name == "pass" and float(ms) > 0 and share == "100.0%"
