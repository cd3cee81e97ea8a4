"""Count the physical and the code lines of every Python module in a directory.

Physical lines are newline characters, as ``wc -l`` counts them.  Code
lines are the lines that carry a token of the program: module, class and
function docstrings, comments and blank lines are not code, while every
line of a multi-line expression or of a string that is not a docstring is.

    python3 tests/source_lines.py src/ionbridge

prints one row per module and a total row.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers spanned by the docstrings of ``tree``'s module, classes
    and functions."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_lines(text: str) -> tuple[int, int]:
    """(physical lines, code lines) of the Python source ``text``."""
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in _LAYOUT:
            code.update(range(token.start[0], token.end[0] + 1))
    return text.count("\n"), len(code - docstring_lines(ast.parse(text)))


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: source_lines.py DIRECTORY", file=sys.stderr)
        return 2
    rows = [(path.name, *count_lines(path.read_text()))
            for path in sorted(Path(argv[0]).glob("*.py"))]
    rows.append(("total", sum(row[1] for row in rows), sum(row[2] for row in rows)))
    width = max(len(row[0]) for row in rows)
    print(f"{'module':<{width}}  {'lines':>6}  {'code':>6}")
    for name, physical, code in rows:
        print(f"{name:<{width}}  {physical:>6}  {code:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
