"""Every user-visible output is byte-identical to the pinned corpus digest.

``tools/output_digest.py`` hashes the automata, ``--stats`` (without its
``seconds`` lines), the debug dumps, the order report and ``fmt`` for about
a thousand input groups.  Its ``total all=`` line is pinned here, so a
change to any output byte fails this test.  Re-pin it only together with a
CHANGES.md entry that names the output change and why it is right.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOTAL_ALL = "c38cb71eb37b69180d29da5c1917d92205d50b01c1bc07e72307a149c8d71c23"


def test_output_digest_total_is_pinned():
    run = subprocess.run([sys.executable, str(ROOT / "tools" / "output_digest.py")],
                         capture_output=True, text=True, timeout=600, check=True)
    last = run.stdout.splitlines()[-1]
    assert last == f"total all={TOTAL_ALL}"
