"""The code-line count of ``tools/codelines.py`` on a handmade module."""

import importlib.util
from pathlib import Path

spec = importlib.util.spec_from_file_location(
    "codelines", Path(__file__).resolve().parents[1] / "tools" / "codelines.py")
codelines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(codelines)

# Code lines marked "# code"; every other line is blank, a comment or part
# of a docstring.
MODULE = '''"""A module docstring
over two lines."""

import math  # code

# A comment line.
LIMIT = 10  # code


def scaled(x):  # code
    """A function docstring."""
    return math.fsum(  # code
        [x,  # code
         LIMIT],  # code
    )  # code


class Box:  # code
    """A class docstring
    over two lines.
    """

    label = """a string  # code
    that is not a docstring"""  # code
'''


def test_counts_code_and_not_docstrings_comments_or_blank_lines():
    marked = sum(line.endswith("# code") for line in MODULE.splitlines())
    assert marked == 10
    assert codelines.code_lines(MODULE) == marked


def test_report_gives_both_trees_and_the_change(tmp_path):
    base, head = tmp_path / "base", tmp_path / "head"
    base.mkdir()
    head.mkdir()
    (base / "m.py").write_text(MODULE)
    (head / "m.py").write_text(MODULE + "EXTRA = 1\n")
    (head / "n.py").write_text("X = 2\n")
    assert codelines.report([base, head]).splitlines()[2:] == [
        "| m.py | 10 | 11 | +1 |",
        "| n.py | 0 | 1 | +1 |",
        "| total | 10 | 12 | +2 |",
    ]
