"""The package's public names, and no import left unused."""

import ast
from collections import Counter
from pathlib import Path

import pytest

import gmethods

MODULES = sorted(p for p in Path(gmethods.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def test_every_public_name_resolves_and_is_listed_once():
    # A re-export left behind by a deletion fails here, not in a user's import.
    assert [n for n, c in Counter(gmethods.__all__).items() if c > 1] == []
    assert [n for n in gmethods.__all__ if not hasattr(gmethods, n)] == []


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_imported_name_is_used(path):
    # An import a deletion leaves behind fails here; a deliberate re-export
    # carries "# noqa: F401" on its line.
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert {n: ln for n, ln in imported.items() if n not in used} == {}
