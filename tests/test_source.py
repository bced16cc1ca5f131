"""Source-level guards over the package modules."""

import ast
from pathlib import Path

import homoglab

SOURCE = Path(homoglab.__file__).parent


def test_no_assert_statements():
    # python -O strips assert statements, so internal checks raise
    # InternalInvariant instead.
    found = []
    for path in sorted(SOURCE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert not found, f"assert statements in the package: {found}"
