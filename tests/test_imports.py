"""Every name a package module imports is used in that module.

No linter ships with the project, so this is its unused-import check.
``__init__`` is exempt: its imports are the public surface.
"""

import ast
import pathlib

import pytest

import starfem

MODULES = sorted(p for p in pathlib.Path(starfem.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def _imported(tree) -> set:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).partition(".")[0]
                         for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(_imported(tree) - used) == []
