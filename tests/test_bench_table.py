"""``tools/bench_table.py`` prints one table row per bench family."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

from lstaq.cli import BENCH_MIN_SIZE

ROOT = Path(__file__).resolve().parents[1]


def test_bench_table_has_one_row_per_family():
    run = subprocess.run([sys.executable, str(ROOT / "tools" / "bench_table.py"),
                          "--sizes", "2,4", "--repeat", "1"],
                         capture_output=True, text=True, timeout=300, check=True)
    header, rule, *rows = run.stdout.splitlines()
    assert header.split("|")[1:-1] == [" family     ", " n=2 s ", " n=4 s ",
                                       " transitions at 4 (pre/post) ",
                                       " peak RSS at 4 (MB) ", " write s at 4 ",
                                       " records s at 4 ", " write peak RSS at 4 (MB) "]
    assert set(rule) == {"|", "-", ":"}
    assert [row.split("|")[1].strip() for row in rows] == list(BENCH_MIN_SIZE)
    for row in rows:
        _family, two, four, transitions, peak, write, records, write_peak = row.split("|")[1:-1]
        assert float(two) >= 0 and float(four) >= 0
        pre, post = transitions.split("/")
        assert int(pre) > 0 and int(post) > 0
        assert float(peak) > 0
        assert float(write) >= 0 and float(records) >= 0 and float(write_peak) > 0
