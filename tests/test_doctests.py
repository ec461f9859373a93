"""The examples in the package's docstrings and in the README, run as tests,
and its export lists."""

import doctest
import importlib
import pkgutil
import re
from pathlib import Path

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


def test_readme_library_example_runs():
    # the README's python block uses the public API; a rename must not leave it stale
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, re.S | re.M)
    assert len(blocks) == 1 and "kl_column" in blocks[0]
    exec(compile(blocks[0], "README.md", "exec"), {})
