"""The package's public surface: every ``__all__`` name resolves, lazily, to its module's own object; numpy loads at two sites; one module raises ConvergenceError."""

import ast
import importlib
import os
import subprocess
import sys

import expfam_markets
from conftest import subprocess_env


def test_star_import_binds_every_listed_name():
    namespace = {}
    exec("from expfam_markets import *", namespace)
    assert set(expfam_markets.__all__) <= set(namespace)


def test_every_listed_name_is_its_modules_object():
    assert len(set(expfam_markets.__all__)) == len(expfam_markets.__all__)
    for name in expfam_markets.__all__:
        value = getattr(expfam_markets, name)
        assert value.__module__.startswith("expfam_markets.")
        assert getattr(importlib.import_module(value.__module__), name) is value


def test_unknown_name_raises_attribute_error():
    assert not hasattr(expfam_markets, "no_such_name")


def test_import_loads_no_submodule():
    code = "import sys, expfam_markets; print(sorted(m for m in sys.modules if m.startswith('expfam_markets.')))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=subprocess_env(), timeout=120, check=True)
    assert proc.stdout == "[]\n"


def _numpy_import_scopes(node, scope):
    """The dotted scope (module, class, function) of every numpy import under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            yield from _numpy_import_scopes(child, f"{scope}.{child.name}")
            continue
        if (isinstance(child, ast.Import) and any(a.name.split(".")[0] == "numpy" for a in child.names)
                or isinstance(child, ast.ImportFrom) and (child.module or "").split(".")[0] == "numpy"):
            yield scope
        yield from _numpy_import_scopes(child, scope)


def test_numpy_is_imported_at_two_sites_only():
    # The outcome Generator and the equilibrium solver; all else runs on array('d') and math.
    package = os.path.dirname(expfam_markets.__file__)
    scopes = set()
    for name in os.listdir(package):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                scopes.update(_numpy_import_scopes(ast.parse(fh.read()), name[:-3]))
    assert scopes == {"harness.run_simulation", "equilibrium"}


def test_convergence_error_is_raised_in_equilibrium_only():
    # Only best-response dynamics iterates to a tolerance; every family map ends by construction.
    package = os.path.dirname(expfam_markets.__file__)
    raisers = set()
    for name in os.listdir(package):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read())
            raisers.update(name[:-3] for node in ast.walk(tree) if isinstance(node, ast.Raise) and node.exc is not None
                           and "ConvergenceError" in {n.id for n in ast.walk(node.exc) if isinstance(n, ast.Name)})
    assert raisers == {"equilibrium"}
