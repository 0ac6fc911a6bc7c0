"""Every exported name resolves, so no stale export survives a deletion,
and importing the package pulls in no third-party dependency."""

import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import hecketrace

MODULES = [hecketrace] + [
    importlib.import_module(f"hecketrace.{info.name}")
    for info in pkgutil.iter_modules(hecketrace.__path__)
]


@pytest.mark.parametrize(
    "module", [m for m in MODULES if hasattr(m, "__all__")], ids=lambda m: m.__name__
)
def test_every_name_in_all_resolves(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_import_loads_no_numpy():
    src = os.path.dirname(os.path.dirname(hecketrace.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    code = "import hecketrace, hecketrace.cli, sys; assert 'numpy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_import_loads_no_source_introspection():
    # the value classes are plain classes on report.Value: importing the
    # package pulls in no dataclasses, nor the inspect, ast, dis and
    # tokenize modules behind it, beyond what argparse, json and fractions
    # load themselves
    src = os.path.dirname(os.path.dirname(hecketrace.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    code = (
        "import sys, argparse, json, fractions\n"
        "before = set(sys.modules)\n"
        "import hecketrace.cli, hecketrace.fqconv, hecketrace.tensor\n"
        "heavy = {'dataclasses', 'inspect', 'ast', 'dis', 'tokenize'}\n"
        "print(sorted(heavy & (set(sys.modules) - before)))\n"
    )
    run = subprocess.run([sys.executable, "-c", code], env=env, check=True, capture_output=True)
    assert run.stdout.decode().strip() == "[]"
