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
