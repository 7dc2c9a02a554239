"""Test of tools/code_lines.py, the code-line counter."""

import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "code_lines", Path(__file__).parents[1] / "tools" / "code_lines.py"
)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

# 8 code lines: the import, the def, the three lines of the call, the
# return, the class line and its attribute; not the docstrings, the
# comment or the blank line
FIXTURE = '''"""Module docstring,
on two lines."""
import math


def f(x):
    """Function docstring."""
    # a comment
    y = max(
        x,
        0.0)
    return math.sqrt(y)
class C:
    """Class docstring."""
    a = "not a docstring"
'''


def test_counts_only_the_code_lines():
    assert code_lines.code_lines(FIXTURE) == 8


def test_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(FIXTURE)
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\n# end\n")
    (tmp_path / "pkg" / "notes.txt").write_text("not python\n")
    single = tmp_path / "c.py"
    single.write_text('"""Only a docstring."""\n')
    assert code_lines.main([str(tmp_path / "pkg"), str(single)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"     8 {tmp_path / 'pkg' / 'a.py'}",
        f"     1 {tmp_path / 'pkg' / 'b.py'}",
        f"     0 {single}",
        "     9 total",
    ]
