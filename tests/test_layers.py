"""The package's module graph, read from each module's import statements.

The game core states the model; the equilibrium solver and the simulator
build on it and on nothing else of the package, so neither can reach the
rate policies or the harness.  The rate policies build on the solver, and
the CLI sits on top of the harness.  Every module's imports are pinned, and
the package root exports exactly the names it imports.
"""

import ast
from pathlib import Path

import pytest

import ifedcrowd

PACKAGE = Path(ifedcrowd.__file__).parent


def package_imports(module: str) -> set[str]:
    """The package modules that ``module`` imports, by their short names."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:  # from .x import ...
                found.add(node.module.split(".")[0])
            elif node.level == 1:  # from . import x, y
                found.update(alias.name for alias in node.names)
            elif node.module and node.module.split(".")[0] == "ifedcrowd":
                parts = node.module.split(".")
                found.update([parts[1]] if len(parts) > 1 else (a.name for a in node.names))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "ifedcrowd" and len(parts) > 1:
                    found.add(parts[1])
    return found


@pytest.mark.parametrize(
    "module, allowed",
    [
        ("game_core", {"errors"}),
        ("equilibrium", {"game_core", "errors"}),
        ("fedsim", {"game_core", "errors"}),
        ("mechanisms", {"equilibrium", "game_core", "errors"}),
        ("cli", {"equilibrium", "errors", "game_core", "harness", "mechanisms"}),
    ],
)
def test_module_imports_only_its_lower_layers(module, allowed):
    assert package_imports(module) == allowed


def test_import_reader_finds_the_harness_imports():
    assert package_imports("harness") == {
        "equilibrium",
        "errors",
        "fedsim",
        "game_core",
        "mechanisms",
    }
    assert package_imports("errors") == set()


def test_package_root_exports_exactly_the_names_it_imports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imported = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    names = ifedcrowd.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    assert set(names) == set(imported)
    namespace = {}
    exec("from ifedcrowd import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(names)
