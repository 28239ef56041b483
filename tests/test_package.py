"""The public API is declared once: the package exports the union of its
modules' own ``__all__`` lists. The package is the verifier alone: the
reference implementations the tests compare against live in
``tests/oracles.py``, and nothing in ``src/`` imports the test tree.
Importing it starts no OpenBLAS worker thread beside the process team."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import levyhull
import oracles

MODULES = (
    "closed_form", "errors", "hullgeom", "limits",
    "lp_volumes", "mc_engine", "results", "rng_stable",
)
PACKAGE_DIR = Path(levyhull.__file__).parent


def _numpy_blas() -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # numpy before 1.26 has no "dicts" mode
        return "unknown"


OPENBLAS_ON_LINUX = pytest.mark.skipif(
    not sys.platform.startswith("linux") or "openblas" not in _numpy_blas(),
    reason="counts OpenBLAS threads in /proc/self/task",
)


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


def _threads_after_import(blas_threads):
    """Threads of a fresh process that has imported levyhull, with
    OPENBLAS_NUM_THREADS set to ``blas_threads`` or unset for None."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    env["PYTHONPATH"] = str(PACKAGE_DIR.parent)
    got = subprocess.run(
        [sys.executable, "-c", "import os, levyhull; print(len(os.listdir('/proc/self/task')))"],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return int(got.stdout)


@OPENBLAS_ON_LINUX
def test_import_starts_no_blas_worker_thread():
    # trials run in parallel on levyhull's own process team
    assert _threads_after_import(None) == 1


@OPENBLAS_ON_LINUX
def test_a_blas_thread_count_the_user_set_wins():
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("needs 2 usable CPUs")
    assert _threads_after_import("2") == 2
