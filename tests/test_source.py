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
# names them.  A new one must be added here and there, not slip in.  The one
# memo left, morphisms._code, is a bounded functools.lru_cache and holds no
# module-level container.
PROCESS_CACHES: set[str] = set()


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


def _is_unbounded_memo(decorator) -> bool:
    """functools.cache, or lru_cache with maxsize None, under any import."""

    def name(node):
        if isinstance(node, ast.Attribute):
            return node.attr
        return node.id if isinstance(node, ast.Name) else None

    if name(decorator) == "cache":
        return True
    if not isinstance(decorator, ast.Call) or name(decorator.func) != "lru_cache":
        return False
    sizes = decorator.args[:1] + [k.value for k in decorator.keywords if k.arg == "maxsize"]
    return any(isinstance(s, ast.Constant) and s.value is None for s in sizes)


def test_no_unbounded_memo_decorators():
    found = []
    for path in sorted(SOURCE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any(_is_unbounded_memo(d) for d in node.decorator_list):
                    found.append(f"{path.name}:{node.name}")
    assert not found, f"unbounded memo decorators in the package: {found}"


def test_unbounded_memo_guard_catches_each_form():
    # The guard must see every spelling that memoises without bound, and
    # pass the bounded one the package uses.
    def first_decorator(source):
        return ast.parse(source).body[0].decorator_list[0]

    for source in (
        "@functools.cache\ndef f(x): pass",
        "@cache\ndef f(x): pass",
        "@functools.lru_cache(maxsize=None)\ndef f(x): pass",
        "@lru_cache(None)\ndef f(x): pass",
    ):
        assert _is_unbounded_memo(first_decorator(source)), source
    for source in (
        "@lru_cache(maxsize=1 << 15)\ndef f(x): pass",
        "@functools.lru_cache\ndef f(x): pass",
        "@lru_cache()\ndef f(x): pass",
        "@dataclass(frozen=True)\nclass C: pass",
    ):
        assert not _is_unbounded_memo(first_decorator(source)), source


def test_one_local_morphism_rule():
    # morphisms._targets is the only statement of which targets keep a map
    # a local H-, M- or I-morphism; the search, the is_local_* checks and
    # the deciders all ask it.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.FunctionDef) and node.name == "_targets"
    ]
    assert [f.split(":")[0] for f in found] == ["morphisms.py"], found
