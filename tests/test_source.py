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


# The process-global memo caches the package keeps on purpose; the README
# names them.  A new one must be added here and there, not slip in.
PROCESS_CACHES = {
    "homogeneity.py:_SIG_CODE_CACHE",
    "morphisms.py:_CODE_CACHE",
    "morphisms.py:_REPS_CACHE",
}


def _is_empty_container(node) -> bool:
    if isinstance(node, ast.Dict):
        return not node.keys
    if isinstance(node, ast.List):
        return not node.elts
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("dict", "list", "set")
        and not node.args
        and not node.keywords
    )


def test_module_level_caches_are_the_known_ones():
    found = set()
    for path in sorted(SOURCE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets = [node.target]
            else:
                continue
            if _is_empty_container(node.value):
                found |= {f"{path.name}:{t.id}" for t in targets if isinstance(t, ast.Name)}
    assert found == PROCESS_CACHES
