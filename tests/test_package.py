"""The public API is declared once: the package exports the union of its
modules' own ``__all__`` lists. The package is the verifier alone: the
reference implementations the tests compare against live in
``tests/oracles.py``, and nothing in ``src/`` imports the test tree."""

import ast
import importlib
import pkgutil
from pathlib import Path

import levyhull
import oracles

MODULES = (
    "closed_form", "errors", "hullgeom", "limits",
    "lp_volumes", "mc_engine", "results", "rng_stable",
)
PACKAGE_DIR = Path(levyhull.__file__).parent


def test_public_api_is_the_union_of_module_lists():
    names = levyhull.__all__
    assert len(names) == len(set(names)) == 52
    for mod_name in MODULES:
        module = getattr(levyhull, mod_name)
        for name in module.__all__:
            assert name in names
            assert getattr(levyhull, name) is getattr(module, name)
    assert {"ConfigError", "LevyHullError", "trial_rng", "hull3d"} <= set(names)


def test_the_oracles_are_not_in_the_package():
    assert len(oracles.__all__) == 12
    modules = [levyhull] + [
        importlib.import_module(f"levyhull.{info.name}")
        for info in pkgutil.iter_modules([str(PACKAGE_DIR)])
    ]
    for module in modules:
        for name in oracles.__all__:
            assert not hasattr(module, name), f"{module.__name__}.{name}"


def test_the_package_does_not_import_the_test_tree():
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                roots = [node.module.split(".")[0]]
            else:
                continue
            assert not {"oracles", "tests", "conftest"} & set(roots), path.name
