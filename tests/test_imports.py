"""Source hygiene: no module or test file imports a name it never uses,
no function or class in ``src/starcert`` goes uncalled by the program, and
every third-party module a test needs is declared in ``pyproject.toml``.

No linter ships with the toolchain, so this walks each module's syntax
tree with ``ast``.  A name counts as used when it appears as a bare name
anywhere in the module, annotations included.
"""

import ast
import re
import sys
import tomllib
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
SRC = ROOT / "src" / "starcert"
REFERENCE = TESTS / "reference_formulas.py"
MODULES = (sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
           + sorted(TESTS.glob("*.py")))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_guard_flags_an_unused_import():
    assert unused_imports("import math\nfrom os import path, sep\nsep\n") == [
        "math", "path"]
    assert unused_imports("from __future__ import annotations\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def definitions(source: str) -> set[str]:
    """Module-level function and class names."""
    return {node.name for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}


def references(source: str) -> set[str]:
    """Names a module refers to, as bare names or attributes.  A string
    naming a function (the benchmark tracer's ``LAYER_FUNCTIONS`` table) is
    not a call, so it does not count."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def unreferenced_definitions() -> list[str]:
    """Definitions in ``src/starcert`` that no program code refers to.

    Program code is every module but ``__init__`` (a re-export is not a
    use), the benchmark's ``perfbench/*.py`` and the console-script entry
    point; tests do not count."""
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    refs = set()
    for path in modules + sorted((ROOT / "perfbench").glob("*.py")):
        refs |= references(path.read_text())
    refs.update(re.findall(r'"[\w.]+:(\w+)"', (ROOT / "pyproject.toml").read_text()))
    return sorted(f"{p.stem}.{name}" for p in modules
                  for name in definitions(p.read_text()) - refs)


def test_guard_flags_an_unreferenced_definition():
    source = "class A:\n    pass\n\ndef f():\n    return g\n\ndef g():\n    pass\n"
    assert definitions(source) == {"A", "f", "g"}
    assert definitions(source) - references(source) == {"A", "f"}
    table = 'LAYER_FUNCTIONS = (("series", "f"),)\nOTHER = ("A",)\n'
    assert references(table) == {"LAYER_FUNCTIONS", "OTHER"}


def test_every_definition_has_a_caller():
    assert unreferenced_definitions() == []


def test_package_root_holds_only_what_the_benchmark_imports_from_it():
    """Each public name has one home, its module: the package root imports
    just the names ``perfbench`` takes ``from starcert`` itself."""
    root = {a.asname or a.name
            for node in ast.walk(ast.parse((SRC / "__init__.py").read_text()))
            if isinstance(node, ast.ImportFrom) for a in node.names}
    modules = {p.stem for p in SRC.glob("*.py")}
    taken = {a.name
             for path in (ROOT / "perfbench").glob("*.py")
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.ImportFrom) and node.module == "starcert"
             for a in node.names if a.name not in modules}
    assert root == taken


def third_party_imports(source: str) -> set[str]:
    """Top-level modules a file imports or ``importorskip``s, less the
    standard library and ``starcert`` itself."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.add(node.module.split(".")[0])
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and node.func.attr == "importorskip"):
            out.add(node.args[0].value.split(".")[0])
    return out - set(sys.stdlib_module_names) - {"starcert"}


def declared_requirements() -> set[str]:
    """Distribution names in ``dependencies`` and the ``test`` extra."""
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    reqs = project["dependencies"] + project["optional-dependencies"]["test"]
    return {re.match(r"[A-Za-z0-9_.-]+", r).group().lower().replace("-", "_")
            for r in reqs}


def test_guard_collects_third_party_imports():
    source = ("import os, numpy.linalg\nfrom mpmath import mp\n"
              "from . import sibling\nfrom starcert import cli\n"
              "pytest.importorskip('scipy.special')\n")
    assert third_party_imports(source) == {"numpy", "mpmath", "scipy"}


def test_every_module_the_tests_import_is_declared():
    # a fresh `pip install -e .[test]` must bring every module the tests
    # import, or importorskip turns a missing one into a silent skip; a
    # module of tests/ itself ships with them
    needed = set()
    for path in TESTS.glob("*.py"):
        needed |= third_party_imports(path.read_text())
    local = {path.stem for path in TESTS.glob("*.py")}
    assert needed - local - declared_requirements() == set()


def top_level_names(source: str) -> set[str]:
    """Module-level functions, classes and plainly assigned names."""
    return definitions(source) | {
        t.id for node in ast.parse(source).body if isinstance(node, ast.Assign)
        for t in node.targets if isinstance(t, ast.Name)}


def test_reference_formulas_have_one_home_and_a_user():
    """Each shared reference formula is defined in ``reference_formulas``
    alone, and some test file imports it."""
    shared = top_level_names(REFERENCE.read_text())
    imported, redefined = set(), []
    for path in sorted(TESTS.glob("test_*.py")):
        source = path.read_text()
        imported |= {a.name for node in ast.parse(source).body
                     if isinstance(node, ast.ImportFrom)
                     and node.module == REFERENCE.stem for a in node.names}
        redefined += [f"{path.name}:{name}"
                      for name in sorted(top_level_names(source) & shared)]
    assert shared - imported == set()
    assert redefined == []
