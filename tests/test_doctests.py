"""The examples in the package's docstrings, run as tests, and its export lists."""

import doctest
import importlib
import pkgutil

import pytest

import bruhat_forge

# __main__ runs the command line on import
MODULES = ["bruhat_forge"] + [
    f"bruhat_forge.{m.name}"
    for m in pkgutil.iter_modules(bruhat_forge.__path__)
    if m.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_doctests_pass(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0


def test_doctests_are_collected():
    # weyl, laurent, regions and poset carry examples; a rename must not drop them
    assert sum(doctest.testmod(importlib.import_module(n)).attempted for n in MODULES) >= 14


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    # a deleted function's stale __all__ entry breaks only a star import;
    # the package itself has no __all__, its imports bind every name it exports
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
