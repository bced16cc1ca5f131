"""Count the source lines of the homoglab package.

Prints the physical lines and the code lines of every module under
src/homoglab, then the totals.  Code lines leave out blank lines, comment
lines and docstrings.  Run from anywhere:

    python tools/source_lines.py
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(text: str) -> tuple[int, int]:
    """(physical lines, code lines) of one Python source."""
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code - _docstring_lines(ast.parse(text)))


PACKAGE = Path(__file__).resolve().parent.parent / "src" / "homoglab"


def main() -> int:
    total_physical = total_code = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        physical, code = count(path.read_text())
        total_physical += physical
        total_code += code
        print(f"{physical:6d} {code:6d}  {path.relative_to(PACKAGE)}")
    print(f"{total_physical:6d} {total_code:6d}  total (physical, code)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
