"""Count the code lines of the Python modules in one or two directories.

    python tools/codelines.py DIR [DIR]

A code line is a line that holds part of a token other than a comment, a
newline, an indent or a dedent, and that is not part of a docstring: blank
lines, comment lines and docstring lines do not count.  A docstring is a
string literal that stands alone as the first statement of a module, class
or function.  Every line of any other string counts, and so does every line
of a statement that spans several, such as a call.

With one directory the script prints a Markdown table of each module's code
lines and their total.  With two, such as a base tree's package and a
change's, it prints both counts of every module in either, and the change
from the first to the second.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

# Tokens that hold no code.
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree):
    """The line numbers of every docstring in the module ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source):
    """The number of code lines of the Python ``source`` text."""
    docstrings = _docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def count_tree(directory):
    """Code lines of each ``*.py`` module under ``directory``, by its path
    relative to it."""
    root = Path(directory)
    return {path.relative_to(root).as_posix(): code_lines(path.read_text(encoding="utf-8"))
            for path in sorted(root.rglob("*.py"))}


def report(directories):
    """The Markdown table of the counts of one or two ``directories``."""
    counts = [count_tree(d) for d in directories]
    modules = sorted(set().union(*counts))
    rows = [[name] + [c.get(name, 0) for c in counts] for name in modules]
    rows.append(["total"] + [sum(c.values()) for c in counts])
    header = ["module"] + [str(d) for d in directories]
    if len(counts) == 2:
        header.append("change")
        for row in rows:
            row.append(f"{row[2] - row[1]:+d}")
    lines = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
    lines += ["| " + " | ".join(str(v) for v in row) + " |" for row in rows]
    return "\n".join(lines)


def main(argv):
    if not 1 <= len(argv) <= 2 or not all(Path(d).is_dir() for d in argv):
        sys.exit("usage: python tools/codelines.py DIR [DIR]")
    print("Code lines: comment, blank and docstring lines do not count.\n")
    print(report(argv))


if __name__ == "__main__":
    main(sys.argv[1:])
