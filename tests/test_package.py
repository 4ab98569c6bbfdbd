"""The package's public names, and no import left unused."""

import ast
import importlib
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


def _loaded_by_import(roots: tuple[str, ...]) -> list[str]:
    """The modules under ``roots`` that a fresh "import gmethods" loads."""
    code = (f"import sys, gmethods; print(*sorted(m for m in sys.modules "
            f"if m.split('.')[0] in {roots!r}))")
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, check=True).stdout.split()


def test_import_loads_every_module_but_the_cli():
    # perfbench's tracer looks every module it spans up in sys.modules after
    # a bare "import gmethods", so no module may load only on first use.
    assert _loaded_by_import(("gmethods",)) == sorted(
        ["gmethods"] + [f"gmethods.{p.stem}" for p in MODULES if p.stem != "cli"])


def test_import_loads_no_process_pool():
    # studies.run_study imports its pool only when it runs replicates in
    # parallel, so a bare "import gmethods" pays for no worker machinery.
    assert _loaded_by_import(("concurrent", "multiprocessing")) == []


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
STEMS = {p.stem for p in MODULES}

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


def _bindings(tree, stem: str | None) -> tuple[dict, dict]:
    """The names a source binds by importing: alias -> package module (from
    ``from . import m``, ``from gmethods import m`` or ``import gmethods.m as
    alias``), and alias -> (defining module, name) (from ``from .m import
    name as alias`` or ``from gmethods.m import name``).  Inside a package
    module ``stem``, its own top-level names are bound to it as well."""
    modules, names = {}, {}
    if stem is not None:
        names = {node.name: (stem, node.name) for node in tree.body
                 if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parent, _, child = alias.name.partition(".")
                if alias.asname and parent == "gmethods" and child in STEMS:
                    modules[alias.asname] = child
        elif isinstance(node, ast.ImportFrom):
            source = node.module or ""
            if node.level == 0:
                if source.partition(".")[0] != "gmethods":
                    continue
                source = source.partition(".")[2]
            for alias in node.names:
                if not source and alias.name in STEMS:
                    modules[alias.asname or alias.name] = alias.name
                    continue
                home = importlib.import_module(f"gmethods.{source}" if source else "gmethods")
                package, _, defined = (getattr(getattr(home, alias.name, None), "__module__",
                                               None) or "").partition(".")
                if package == "gmethods":
                    names[alias.asname or alias.name] = (defined, alias.name)
    return modules, names


def _uses_in(source: str, stem: str | None) -> list[tuple[str, tuple | None, str | None, frozenset]]:
    """Every name or attribute used in ``source``, the text of package module
    ``stem`` (None outside the package): its bare name, the (module, name) it
    resolves to through the source's imports (None if it does not), ``stem``,
    and the functions and classes whose definitions enclose the use."""
    tree = ast.parse(source)
    modules, names = _bindings(tree, stem)
    uses = []

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
        if isinstance(node, ast.Name):
            uses.append((node.id, names.get(node.id), stem, enclosing))
        elif isinstance(node, ast.Attribute):
            owner = node.value.id if isinstance(node.value, ast.Name) else None
            target = (modules[owner], node.attr) if owner in modules else None
            uses.append((node.attr, target, stem, enclosing))
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())
    return uses


USES = [use for path in SOURCES  # src/ but __init__, and perfbench/ but its tests
        for use in _uses_in(path.read_text(), path.stem if path in MODULES else None)]


def _definitions() -> dict[str, str]:
    """The module of each public function or class defined at the top level
    of a module in ``MODULES``, and of each public method, property or static
    method, as ``Class.name``, defined in the body of such a class."""
    found = {}
    for path in MODULES:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                found[node.name] = path.stem
                if isinstance(node, ast.ClassDef):
                    found.update({f"{node.name}.{child.name}": path.stem for child in node.body
                                  if isinstance(child, ast.FunctionDef)
                                  and not child.name.startswith("_")})
    return found


DEFINITIONS = _definitions()


def _reached(definition: str, uses=USES) -> bool:
    """Whether ``definition`` (a key of ``DEFINITIONS``) is used outside its
    own definition and outside those of the listed names.

    A module-level function or class is used only where a source's imports
    resolve the use to it: ``module.name`` on a name bound to its module, the
    name or alias a ``from`` import binds, or the bare name in its own module,
    where alone its own definition does not count.  A method is used wherever
    its bare name is, outside any definition of that name, because its
    callers reach it through instances whose class the source does not name.
    """
    method = "." in definition
    name, module = definition.rpartition(".")[2], DEFINITIONS[definition]
    return any(not enclosing & SKIPPED
               and (bare == name and name not in enclosing if method
                    else target == (module, name) and not (stem == module and name in enclosing))
               for bare, target, stem, enclosing in uses)


def test_every_public_name_has_a_caller_that_is_not_a_test():
    names = [d for d in DEFINITIONS if "." not in d]
    assert {"main", "JointTable", "score_test_added"} <= set(names)
    assert [n for n in names if n not in UNREACHED and not _reached(n)] == []


def test_every_public_method_has_a_caller_that_is_not_a_test():
    methods = [d for d in DEFINITIONS if "." in d]
    assert "JointTable.from_csv" in methods
    assert [m for m in methods if m not in UNREACHED and not _reached(m)] == []


@pytest.mark.parametrize("name", sorted(UNREACHED))
def test_a_listed_name_is_public_and_still_unreached(name):
    assert name in DEFINITIONS
    assert not _reached(name)


def test_a_function_is_reached_only_through_its_module():
    # subprocess.run is not reproduce.run, and a method's body may call the
    # same-named function of another module, but a function may not call itself.
    def reached(source, name, stem=None):
        return _reached(name, _uses_in(source, stem))

    assert not reached("import subprocess\nsubprocess.run(['x'])", "run")
    assert reached("from gmethods import reproduce\nreproduce.run('x')", "run")
    assert reached("from .reproduce import run as go\ngo('x')", "run", "cli")
    assert reached("from .features import uses_covariates as f\nclass B:\n"
                   "    def uses_covariates(self):\n        return f(())\n",
                   "uses_covariates", "sndm")
    assert not reached("def g_estimate():\n    g_estimate()\n", "g_estimate", "sndm")
