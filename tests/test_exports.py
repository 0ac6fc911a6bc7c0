"""Every exported name resolves, so no stale export survives a deletion."""

import importlib
import pkgutil

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
