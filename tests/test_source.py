"""Source-level guards over the package modules."""

import ast
import importlib.util
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


# The process-global memo caches the package keeps: none.  Operations keep
# no state between calls; a memo lives in one call, as the age scan's dict
# of codes does, and the only module-level code data, morphisms._SMALL_CODES,
# is a read-only table built at import.  A new cache must be added here and
# in the README, not slip in.
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


def _is_memo(decorator) -> bool:
    """functools.cache or functools.lru_cache, called or not, bounded or
    not, under any import."""
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    if isinstance(decorator, ast.Attribute):
        name = decorator.attr
    else:
        name = decorator.id if isinstance(decorator, ast.Name) else None
    return name in ("cache", "lru_cache")


def test_no_memo_decorators():
    found = []
    for path in sorted(SOURCE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any(_is_memo(d) for d in node.decorator_list):
                    found.append(f"{path.name}:{node.name}")
    assert not found, f"memo decorators in the package: {found}"


def test_memo_guard_catches_each_form():
    # The guard must see every spelling of a functools memo, bounded or
    # not, and pass other decorators.
    def first_decorator(source):
        return ast.parse(source).body[0].decorator_list[0]

    for source in (
        "@functools.cache\ndef f(x): pass",
        "@cache\ndef f(x): pass",
        "@functools.lru_cache(maxsize=None)\ndef f(x): pass",
        "@lru_cache(None)\ndef f(x): pass",
        "@lru_cache(maxsize=1 << 15)\ndef f(x): pass",
        "@functools.lru_cache\ndef f(x): pass",
        "@lru_cache()\ndef f(x): pass",
    ):
        assert _is_memo(first_decorator(source)), source
    for source in (
        "@dataclass(frozen=True)\nclass C: pass",
        "@property\ndef f(self): pass",
        "@classmethod\ndef f(cls): pass",
        "@given(st.integers())\ndef f(x): pass",
    ):
        assert not _is_memo(first_decorator(source)), source


def _unused_imports(source: str) -> list[str]:
    """Names a module imports but neither uses nor lists in __all__."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {elt.value for elt in node.value.elts}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_no_unused_imports():
    # A simplification that deletes the last use of a name must delete its
    # import too.  __init__ re-exports by star imports, which name nothing.
    found = {
        path.name: unused
        for path in sorted(SOURCE.rglob("*.py"))
        if (unused := _unused_imports(path.read_text()))
    }
    assert not found, f"unused imports in the package: {found}"


def test_unused_import_guard_catches_each_form():
    source = (
        "from __future__ import annotations\n"
        "import os, sys as system\n"
        "import xml.dom\n"
        "from json import dumps, loads as read\n"
        "from .graphs import *\n"
        "__all__ = ['dumps']\n"
        "print(system)\n"
    )
    assert _unused_imports(source) == ["os (line 2)", "read (line 4)", "xml (line 3)"]


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


def test_the_rule_is_applied_in_one_place():
    # A seed or a map to check is placed as the walker's prefix, so no
    # separate seed check is left, and only the walker and the deciders'
    # one-point check for one more vertex use _targets.
    names, users = set(), set()
    for path in sorted(SOURCE.rglob("*.py")):
        for func in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(func, ast.FunctionDef):
                names.add(func.name)
                if any(
                    isinstance(node, ast.Name) and node.id == "_targets"
                    for node in ast.walk(func)
                ):
                    users.add(f"{path.name}:{func.name}")
    assert "_local_image" not in names
    assert users == {"morphisms.py:_local_maps", "homogeneity.py:_i_to_automorphism_failure"}


def test_one_map_walker():
    # morphisms._local_maps is the one walk over partial maps: the search
    # takes its first map and the deciders every map, so the search keeps
    # no recursive helper of its own.
    defs = [
        (path.name, node)
        for path in sorted(SOURCE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.FunctionDef)
    ]
    assert [name for name, node in defs if node.name == "_local_maps"] == ["morphisms.py"]
    (search,) = [node for _, node in defs if node.name == "search_morphism"]
    nested = [node.name for node in ast.walk(search) if isinstance(node, ast.FunctionDef)]
    assert nested == ["search_morphism"], nested


def test_searches_keep_no_nested_function():
    # The clique searches each keep an explicit stack, so none of them can
    # recurse once per level again; nor can the domination number, which
    # needs no recursion at all.
    searches = {
        "_max_clique",
        "_cliques",
        "_lex_least_clique",
        "domination_number",
    }
    found = {}
    for path in sorted(SOURCE.rglob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, ast.FunctionDef) and node.name in searches:
                found[node.name] = [
                    getattr(inner, "name", "<lambda>")
                    for inner in ast.walk(node)
                    if isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
                    and inner is not node
                ]
    assert found == {name: [] for name in searches}


MODULES =("errors", "formats", "graphs", "homogeneity", "morphisms", "presentations", "verify")

# Every public name the package exported before it re-exported each
# module's __all__; none may leave it.
EARLIER_NAMES = set(
    """
    AgeClass AgePartition AnalysisReport BadParams BudgetExhausted
    ClassificationReport Conflict FormatError Graph HomogReport HomoglabError
    InternalInvariant MorphismConstraints NotADirectoryBase OrderTooLarge
    PartialMap Presentation PropertyReport RadoConstruction Requirement
    SeedNotLocalMorphism StarNumberZero SuiteReport Undominated WitnessResult
    address address_union age analyze canonical_code check_property_bounded
    classify_mb common_neighborhood complement complete_graph cone_set
    cross_validate_hh cycle_graph decide_hh_conditions decide_xy directories
    disjoint_union domination_number empty_graph enumerate_graphs
    exact_neighborhood extends_in extension_witness find_triangle_dom2
    graph_from_edgelist graph_from_graph6 graph_to_edgelist graph_to_graph6
    independence_number induced_subgraph is_connected is_directory
    is_independent is_independent_dominating kk_okk lex_product
    make_presentation parse_spec path_graph preceq read_graph rs_truncation
    search_morphism spanning_rado star_number truncate validate_total_map
    verify_alpha_bound_family verify_directory_lemmas
    verify_directory_lemmas_random verify_neighbor_richness write_graph
    """.split()
) | set(MODULES)


def _module(name):
    return getattr(homoglab, name)


def _public_names():
    return {name for name in dir(homoglab) if not name.startswith("_")}


def _error_classes():
    return {
        name: value
        for name, value in vars(homoglab.errors).items()
        if isinstance(value, type) and issubclass(value, homoglab.HomoglabError)
    }


def test_each_module_list_is_exported_as_is():
    for module_name in MODULES[1:]:
        module = _module(module_name)
        for name in module.__all__:
            assert name in vars(module), f"{module_name}.{name} is not defined"
            assert getattr(homoglab, name) is vars(module)[name], f"{module_name}.{name}"
    for name, cls in _error_classes().items():
        assert getattr(homoglab, name) is cls, name


def test_package_names_are_the_module_lists():
    listed = set().union(*(_module(m).__all__ for m in MODULES[1:]))
    submodules = {
        name
        for name in _public_names()
        if type(_module(name)) is type(homoglab)
        and _module(name).__name__ == f"homoglab.{name}"
    }
    assert set(MODULES) <= submodules
    assert _public_names() == listed | set(_error_classes()) | submodules
    assert homoglab.__version__


def test_no_earlier_name_left_the_package():
    assert not EARLIER_NAMES - _public_names()


def test_cli_choices_are_the_module_constants():
    from homoglab.cli import _build_parser
    from homoglab.formats import FORMATS
    from homoglab.homogeneity import X_KINDS
    from homoglab.morphisms import KINDS

    expected = {"--x": X_KINDS, "--y": KINDS, "--format": FORMATS}
    seen = dict.fromkeys(expected, 0)
    parsers = [_build_parser()]
    while parsers:
        parser = parsers.pop()
        for action in parser._actions:
            if isinstance(action.choices, dict):  # the subcommands
                parsers.extend(action.choices.values())
            for option in set(action.option_strings) & set(expected):
                assert tuple(action.choices) == tuple(expected[option]), option
                seen[option] += 1
    assert seen == {"--x": 1, "--y": 1, "--format": 3}


def _source_lines_tool():
    path = Path(__file__).resolve().parent.parent / "tools" / "source_lines.py"
    spec = importlib.util.spec_from_file_location("source_lines", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LINE_COUNT_SAMPLE = '''"""Module docstring,
over two lines."""

# a comment line
import os  # a trailing comment

TEXT = """a string that is
no docstring"""


def f(x):
    """Function docstring."""
    # a comment inside
    total = (x +
             1)

    return total
'''


def test_source_line_count():
    # Blank lines, comment lines and docstrings are not code; a statement
    # counts each line it spans, and a string that is no docstring is code.
    # Code lines: import (5), TEXT (7-8), def (11), total (14-15), return (17).
    assert _source_lines_tool().count(LINE_COUNT_SAMPLE) == (17, 7)
