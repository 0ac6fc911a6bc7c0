"""The usage examples in module docstrings run as part of the suite."""

import doctest

import pytest

from hecketrace import fqconv, hecke, permutations, scalars, tensor, traces


@pytest.mark.parametrize(
    "module",
    [fqconv, hecke, permutations, scalars, tensor, traces],
    ids=lambda m: m.__name__,
)
def test_module_doctests(module):
    result = doctest.testmod(module)
    assert result.attempted > 0
    assert result.failed == 0
