"""``tools/ab_inproc.py`` times two checkouts side by side in one process."""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_ab_inproc_compares_a_checkout_with_itself_on_verify():
    run = subprocess.run([sys.executable, str(ROOT / "tools" / "ab_inproc.py"),
                          "--a", str(ROOT), "--b", str(ROOT),
                          "--workload", "verify", "--seed", "3", "--passes", "2"],
                         capture_output=True, text=True, timeout=300, check=True)
    title, a, b, a2, ratio, control = run.stdout.splitlines()
    assert re.fullmatch(r"verify, seed 3, \d+ jobs a pass", title)
    for side, line in (("A", a), ("B", b), ("A2", a2)):
        m = re.fullmatch(side + r": min (\S+) s  median (\S+) s  \(2 passes\)", line)
        assert m and 0 < float(m[1]) <= float(m[2])
    for side, line in (("B", ratio), ("A2", control)):
        m = re.fullmatch(side + r"/A: q1 (\S+)  median (\S+)  q3 (\S+)  \("
                         + side + r" faster in [012] of 2\)", line)
        assert m and 0 < float(m[1]) <= float(m[2]) <= float(m[3])


def test_ab_inproc_times_only_the_jobs_named_by_prefix(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from workloads import draw_inputs

    want = sum(s.label.startswith("check/random") for s in draw_inputs("verify", 3))
    assert want
    run = subprocess.run([sys.executable, str(ROOT / "tools" / "ab_inproc.py"),
                          "--a", str(ROOT), "--b", str(ROOT),
                          "--workload", "verify", "--seed", "3", "--passes", "1",
                          "--jobs", "check/random"],
                         capture_output=True, text=True, timeout=300, check=True)
    title = run.stdout.splitlines()[0]
    assert title == f"verify, seed 3, {want} jobs a pass, labels starting check/random"
