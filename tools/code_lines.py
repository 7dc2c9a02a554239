"""Count the code lines of Python sources: the lines that hold code, not
only blanks, comments or docstrings.

A line counts when a token other than a comment, a line break or an
indentation change lies on it (a token that spans lines, such as a string,
counts every line it spans), unless that token is a docstring: the first
statement of a module, class or function body when it is a string.  From
the repository root::

    python3 tools/code_lines.py [PATH ...]

prints one line per file, its count and its path, and then the total.  A
directory stands for the ``*.py`` files under it; the default path is
``src/cescov``.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENCODING, tokenize.ENDMARKER}
DEFAULT_PATH = Path(__file__).parents[1] / "src" / "cescov"


def _docstring_starts(tree: ast.AST) -> set[tuple[int, int]]:
    """(line, column) where each docstring of the tree starts."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                starts.add((first.lineno, first.col_offset))
    return starts


def code_lines(source: str) -> int:
    """Number of code lines of a Python source text."""
    docstrings = _docstring_starts(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE and tok.start not in docstrings:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def python_files(paths: list[Path]) -> list[Path]:
    """The files among ``paths`` and the ``*.py`` files under its directories."""
    return [f for path in paths for f in (sorted(path.rglob("*.py")) if path.is_dir() else [path])]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("paths", nargs="*", type=Path, default=[DEFAULT_PATH], help="files or directories")
    total = 0
    for f in python_files(ap.parse_args(argv).paths):
        count = code_lines(f.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d} {f}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
