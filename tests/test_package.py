"""Package surface: the exports resolve, and the orbit oracle stays independent."""

from __future__ import annotations

import ast
from pathlib import Path

import bicolorgame
from bicolorgame import oracle


def test_star_import_resolves_every_export():
    namespace: dict = {}
    exec("from bicolorgame import *", namespace)
    names = set(bicolorgame.__all__)
    assert names <= namespace.keys()
    for name in names:
        assert namespace[name] is getattr(bicolorgame, name)


def test_oracle_imports_no_linear_algebra():
    # the census referees the linear routes, so it may not reuse their machinery
    forbidden = {"gf2", "spaces", "homology", "medial"}
    tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.update((node.module or "").split("."))
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                imported.update(alias.name.split("."))
    assert imported and not imported & forbidden


PACKAGE = Path(bicolorgame.__file__).parent
CACHE_DECORATORS = {"cache", "lru_cache"}
CONTAINERS = {"dict", "set", "list", "defaultdict", "OrderedDict", "WeakKeyDictionary",
              "WeakValueDictionary"}


def _called_name(node: ast.expr) -> str | None:
    """The name that a Name, an Attribute, or a call of either refers to."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Name):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else None


def test_derived_data_is_kept_on_the_graph_not_in_module_caches():
    # EmbeddedGraph.derived keeps each graph's memo on the graph.  The one
    # module cache left is the benchmark worker's: it reads
    # spaces.moves_matrix.cache_info() around every op.
    decorated, uses, globals_, module_memos = [], 0, [], []
    for path in sorted(PACKAGE.rglob("*.py")):
        where = path.relative_to(PACKAGE).with_suffix("").as_posix().replace("/", ".")
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                decorated += [
                    f"{where}.{node.name}"
                    for d in node.decorator_list
                    if _called_name(d) in CACHE_DECORATORS
                ]
            elif isinstance(node, (ast.Name, ast.Attribute)):
                uses += _called_name(node) in CACHE_DECORATORS
            elif isinstance(node, ast.Global):
                globals_.append(f"{where}:{node.lineno}")
        for node in tree.body:
            value = node.value if isinstance(node, (ast.Assign, ast.AnnAssign)) else None
            empty_display = isinstance(value, (ast.Dict, ast.List)) and not (
                value.keys if isinstance(value, ast.Dict) else value.elts
            )
            empty_call = (
                isinstance(value, ast.Call)
                and _called_name(value) in CONTAINERS
                and not value.args
                and not value.keywords
            )
            if empty_display or empty_call:
                module_memos.append(f"{where}:{node.lineno}")
    assert decorated == ["spaces.moves_matrix"]
    assert uses == len(decorated), "a cache made other than by decorating a function"
    assert globals_ == []
    assert module_memos == [], "an empty module-level container, a cache in the making"


def test_package_has_no_assert_statements():
    # python -O strips assert, so an invariant the package checks must raise
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [
            f"{path.relative_to(PACKAGE)}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []
