"""The repository's tools, loaded from their files under ``tools/``."""

import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# Code lines: the import, the def, the return and its continuation, both
# lines of the string that is not a docstring, the class and its field.
_SOURCE = '''"""A module docstring
over two lines."""

import math  # a trailing comment does not hide its line

# A comment line.


def area(radius):
    """A function docstring."""
    return (math.pi
            * radius ** 2)


LABEL = """an assigned string,
not a docstring"""


class Shape:
    """A class docstring
    over two lines."""

    sides = 0
'''


def test_code_lines_counts_code_alone():
    assert _load("code_lines").code_lines(_SOURCE) == 8


def test_code_lines_totals_the_modules_of_a_directory(tmp_path, capsys):
    (tmp_path / "a.py").write_text(_SOURCE)
    (tmp_path / "b.py").write_text('"""Docstring only."""\n\nx = 1\n')
    (tmp_path / "notes.txt").write_text("x = 1\n")
    _load("code_lines").main([str(tmp_path)])
    assert capsys.readouterr().out.split("\n") == [
        "     8  a.py", "     1  b.py", "     9  total", ""]
