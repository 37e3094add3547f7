"""The package's public surface: every ``__all__`` name resolves, lazily, to its module's own object."""

import importlib
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
