"""Count code lines: the lines of a Python module that hold code, with its
docstrings, comments and blank lines excluded.

A line counts when a token other than a comment or a line break starts on it
or spans it, and it is no line of a docstring: the string that opens a
module, class or function body.  ``ast`` finds the docstrings and
``tokenize`` the rest.  Standard library only.

    python tools/code_lines.py [PATH ...]

prints each module's count and the total, for ``src/focklab`` by default.
"""

from __future__ import annotations

import ast
import os
import sys
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
        tokenize.ENCODING, tokenize.ENDMARKER}
OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree):
    """The line numbers of every docstring in a parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, OWNERS) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(path):
    """The number of code lines of the module at ``path``."""
    with open(path, "rb") as fh:
        source = fh.read()
    lines = set()
    with open(path, "rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in SKIP:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def modules(paths):
    """Every ``.py`` file under each path, or the path itself, sorted."""
    out = []
    for path in paths:
        if os.path.isdir(path):
            out += [os.path.join(folder, name) for folder, _, names in os.walk(path)
                    for name in names if name.endswith(".py")]
        else:
            out.append(path)
    return sorted(out)


def main(argv=None):
    paths = (sys.argv[1:] if argv is None else argv) or [os.path.join(ROOT, "src", "focklab")]
    total = 0
    for path in modules(paths):
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {os.path.relpath(path)}")
    print(f"{total:6d}  total")
    return total


if __name__ == "__main__":
    main()
