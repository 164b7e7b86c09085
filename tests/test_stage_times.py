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
            "validate", "measure", "write_lsta", "oracle._denote",
            "permute_state", "enumerate_language", "sample_thetas",
            "membership"]


def _stage_times(workload: str, *options: str) -> tuple[str, str, list[list[str]], str]:
    run = subprocess.run([sys.executable, str(ROOT / "tools" / "stage_times.py"),
                          "--workload", workload, "--seed", "3", "--passes", "1", *options],
                         capture_output=True, text=True, timeout=300, check=True)
    title, header, *rows, total = run.stdout.splitlines()
    return title, header, [row.split() for row in rows], total


def test_stage_times_prints_every_stage_on_one_verify_pass():
    title, header, rows, total = _stage_times("verify")
    assert re.fullmatch(r"verify, seed 3, \d+ jobs a pass, 1 passes, inclusive CPU time",
                        title)
    assert header.split() == ["stage", "ms/pass", "share", "calls/pass"]
    labels = [row[0] for row in rows]
    assert [label for label in labels if label in IN_ORDER] == IN_ORDER
    cells = {row[0]: row[1:] for row in rows}
    for ms, share, calls in cells.values():
        assert float(ms) >= 0 and share.endswith("%") and int(calls) >= 0
    for stage in ("parse", "infer_lengths", "tensor_chain", "oracle._denote",
                  "permute_state", "membership"):
        assert int(cells[stage][2]) > 0, stage
    # A check writes no automaton.
    for stage in ("FreshNamer.for_asts", "check_inferable", "write_lsta"):
        assert cells[stage][2] == "0", stage
    name, ms, share = total.split()
    assert name == "pass" and float(ms) > 0 and share == "100.0%"


def test_stage_times_counts_the_writes_of_one_cases_pass():
    title, _header, rows, _total = _stage_times("cases")
    assert title.startswith("cases, seed 3, ")
    calls = {row[0]: int(row[3]) for row in rows}
    # Each job writes every assertion it translates.
    assert calls["write_lsta"] == calls["validate"] > 0
    assert calls["membership"] == calls["oracle._denote"] == calls["permute_state"] == 0


def test_stage_times_times_only_the_jobs_named_by_prefix(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from workloads import draw_inputs

    want = sum(s.label.startswith("mctoffoli") for s in draw_inputs("wide", 3))
    assert 0 < want < len(draw_inputs("wide", 3))
    title, _header, rows, _total = _stage_times("wide", "--jobs", "mctoffoli")
    assert title == (f"wide, seed 3, {want} jobs a pass, 1 passes, inclusive CPU time,"
                     " labels starting mctoffoli")
    calls = {row[0]: int(row[3]) for row in rows}
    # mctoffoli translates four pairs at each size, and writes each side.
    assert calls["write_lsta"] == 8 * want > 0
    run = subprocess.run([sys.executable, str(ROOT / "tools" / "stage_times.py"),
                          "--workload", "wide", "--passes", "1", "--jobs", "nothing"],
                         capture_output=True, text=True, timeout=300)
    assert run.returncode != 0 and "no wide job label starts with 'nothing'" in run.stderr
