"""Count the code lines of each ``src/lstaq`` module, and their total.

Run it from any checkout as::

    python3 tools/code_lines.py            # this checkout's src/lstaq
    python3 tools/code_lines.py PATH...    # the given files or directories

A code line is a line that holds a token of code: blank lines, comment
lines and the lines of docstrings (a string that opens a module, class or
function body) are not counted, while a line with code and a trailing
comment is.  It prints one Markdown row per module, in path order, and the
total, so a change's size is read with one command rather than typed.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def _docstring_lines(tree: ast.AST) -> set[int]:
    """The lines of every docstring in ``tree``."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in ``source``, Python text."""
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def modules(paths: list[Path]) -> list[Path]:
    """The ``.py`` files of ``paths``, directories searched recursively."""
    found: list[Path] = []
    for p in paths:
        found += sorted(p.rglob("*.py")) if p.is_dir() else [p]
    return found


def table(files: list[Path]) -> list[str]:
    """The table's lines: a row per file and the total."""
    counts = [(f, code_lines(f.read_text())) for f in files]
    width = max([len(f.name) for f, _c in counts] + [len("total")])
    lines = [f"| {'module':<{width}} | code lines |", f"|{'-' * (width + 2)}|-----------:|"]
    lines += [f"| {f.name:<{width}} | {c:>10,} |" for f, c in counts]
    lines.append(f"| {'total':<{width}} | {sum(c for _f, c in counts):>10,} |")
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("paths", nargs="*", type=Path, default=[ROOT / "src" / "lstaq"],
                   help="files or directories (default: this checkout's src/lstaq)")
    args = p.parse_args(argv)
    files = modules(args.paths)
    if not files:
        p.error("no Python files found")
    print("\n".join(table(files)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
