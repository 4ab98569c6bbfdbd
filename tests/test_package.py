"""The package's public names, and no import left unused."""

import ast
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import gmethods

PACKAGE = Path(gmethods.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
ROOT = Path(__file__).parent.parent


def test_every_public_name_resolves_and_is_listed_once():
    # A re-export left behind by a deletion fails here, not in a user's import.
    assert [n for n, c in Counter(gmethods.__all__).items() if c > 1] == []
    assert [n for n in gmethods.__all__ if not hasattr(gmethods, n)] == []


def _readme_api() -> list[tuple[str, str]]:
    """(name, module) for each name in a row of README's "Public API" table."""
    section = (ROOT / "README.md").read_text().split("\n## Public API\n")[1].split("\n## ")[0]
    rows = re.findall(r"^\| `gmethods\.(\w+)` *\|(.*)$", section, re.MULTILINE)
    return [(name, module) for module, cells in rows for name in re.findall(r"`(\w+)`", cells)]


def test_readme_public_api_is_all():
    # Both directions: a name README documents is importable from the package,
    # and the package exports nothing README leaves out.
    api = _readme_api()
    assert sorted(name for name, _ in api) == sorted(gmethods.__all__)
    assert [(name, module) for name, module in api
            if getattr(gmethods, name).__module__ != f"gmethods.{module}"] == []


def test_import_loads_every_module_but_the_cli():
    # perfbench's tracer looks every module it spans up in sys.modules after
    # a bare "import gmethods", so no module may load only on first use.
    code = "import sys, gmethods; print(*sorted(m for m in sys.modules if m.startswith('gmethods.')))"
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == sorted(f"gmethods.{p.stem}" for p in MODULES if p.stem != "cli")


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


SOURCES = MODULES + sorted(p for p in (ROOT / "perfbench").glob("*.py")
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


def _definitions() -> list[str]:
    """``name`` for each public function or class defined at the top level of
    a module in ``MODULES``, and ``Class.name`` for each public method,
    property or static method defined in the body of such a class."""
    found = []
    for path in MODULES:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                found.append(node.name)
                if isinstance(node, ast.ClassDef):
                    found += [f"{node.name}.{child.name}" for child in node.body
                              if isinstance(child, ast.FunctionDef)
                              and not child.name.startswith("_")]
    return found


DEFINITIONS = _definitions()


def test_every_public_name_has_a_caller_that_is_not_a_test():
    names = [d for d in DEFINITIONS if "." not in d]
    assert {"main", "JointTable", "score_test_added"} <= set(names)
    assert [n for n in names if n not in UNREACHED and not _reached(n)] == []


def test_every_public_method_has_a_caller_that_is_not_a_test():
    methods = [d for d in DEFINITIONS if "." in d]
    assert "JointTable.from_csv" in methods
    assert [m for m in methods
            if m not in UNREACHED and not _reached(m.rpartition(".")[2])] == []


@pytest.mark.parametrize("name", sorted(UNREACHED))
def test_a_listed_name_is_public_and_still_unreached(name):
    assert name in DEFINITIONS
    assert not _reached(name.rpartition(".")[2])
