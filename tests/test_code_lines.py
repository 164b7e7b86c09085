"""``tools/code_lines.py`` counts the lines that hold code."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

from code_lines import code_lines  # noqa: E402

# 9 code lines: docstrings, comments and blank lines are not counted, a
# string that is code counts every line it spans, and a line with code and
# a trailing comment counts once.
SOURCE = '''"""A module docstring,
over two lines."""

# A comment.
import os


class Box:
    """A class docstring."""

    size = 1  # a trailing comment

    def area(self):
        """A method docstring."""
        text = """a string
that is code"""
        return (self.size
                * 2)


async def wait():
    """Only a docstring."""
'''


def test_code_lines_skip_docstrings_comments_and_blank_lines():
    assert code_lines(SOURCE) == 9
    assert code_lines("") == 0
    assert code_lines('"""Only a docstring."""\n') == 0


def test_code_lines_prints_each_module_and_the_total(tmp_path):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    run = subprocess.run([sys.executable, str(ROOT / "tools" / "code_lines.py"), str(tmp_path)],
                         capture_output=True, text=True, timeout=60, check=True)
    header, rule, *rows = run.stdout.splitlines()
    assert header.split("|")[1:-1] == [" module ", " code lines "]
    assert set(rule) == {"|", "-", ":"}
    assert [[c.strip() for c in row.split("|")[1:-1]] for row in rows] == [
        ["a.py", "9"], ["b.py", "1"], ["total", "10"]]
