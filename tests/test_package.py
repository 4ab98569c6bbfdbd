"""The package's public names, and no import left unused."""

import ast
import inspect
from collections import Counter
from functools import cached_property
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



SOURCES = MODULES + sorted(p for p in (Path(__file__).parent.parent / "perfbench").glob("*.py")
                           if not p.name.startswith("test_"))

# Public names that nothing outside the tests reaches yet, each with the
# ROADMAP item that will reach it.  This list may only shrink: a listed name
# that gains a caller fails below until it leaves the list, and one whose
# item closes without reaching it is deleted from the package.
UNREACHED = {
    "sndm_mle": "item 2", "SndmMle": "item 2", "sndm_lr_test": "item 2",
    "mc_regime_draws": "item 2", "read_csv": "item 9", "validate": "item 9",
    "JointTable.from_csv": "item 9", "Schema.to_dict": "item 9",
    "Schema.from_dict": "item 9",
}
SKIPPED = {name.rpartition(".")[2] for name in UNREACHED}


def _uses() -> list[tuple[str, frozenset]]:
    """Every name or attribute used in ``SOURCES`` (``src/`` but
    ``__init__``, and ``perfbench/`` but its tests), with the names of the
    functions and classes whose definitions enclose the use."""
    uses = []

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
        if isinstance(node, (ast.Name, ast.Attribute)):
            uses.append((node.id if isinstance(node, ast.Name) else node.attr, enclosing))
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    for path in SOURCES:
        visit(ast.parse(path.read_text()), frozenset())
    return uses


USES = _uses()


def _reached(name: str) -> bool:
    """Used outside its own definition and outside those of the listed names."""
    return any(used == name and not enclosing & (SKIPPED | {name})
               for used, enclosing in USES)


def _public_methods() -> list[str]:
    """``Class.name`` for each public method or property defined in the body
    of a class in ``gmethods.__all__``."""
    kinds = (staticmethod, classmethod, property, cached_property)
    return [f"{name}.{attr}"
            for name in gmethods.__all__ if isinstance(getattr(gmethods, name), type)
            for attr, value in vars(getattr(gmethods, name)).items()
            if not attr.startswith("_")
            and (inspect.isfunction(value) or isinstance(value, kinds))]


def test_every_public_name_has_a_caller_that_is_not_a_test():
    assert [n for n in gmethods.__all__ if n not in UNREACHED and not _reached(n)] == []


def test_every_public_method_has_a_caller_that_is_not_a_test():
    methods = _public_methods()
    assert "JointTable.from_csv" in methods
    assert [m for m in methods
            if m not in UNREACHED and not _reached(m.rpartition(".")[2])] == []


@pytest.mark.parametrize("name", sorted(UNREACHED))
def test_a_listed_name_is_public_and_still_unreached(name):
    owner, _, short = name.rpartition(".")
    assert (owner or name) in gmethods.__all__
    assert not _reached(short)
