"""The examples in the package's docstrings and in the README, run as tests,
its export lists and its memos."""

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
    # weyl, laurent, regions and verify carry examples; a rename must not drop them
    assert sum(doctest.testmod(importlib.import_module(n)).attempted for n in MODULES) >= 14


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    # a deleted function's stale __all__ entry breaks only a star import;
    # the package itself has no __all__: its imports bind the laurent and weyl
    # names, and the names in its lazy table, which load the other modules,
    # must resolve too
    module = importlib.import_module(name)
    exports = [*getattr(module, "__all__", ()), *getattr(module, "_LAZY", ())]
    assert [n for n in exports if not hasattr(module, n)] == []


LAZY_NAMES = {
    "hecke": [
        "HeckeElement",
        "M_element",
        "N_element",
        "content",
        "hecke_geq",
        "is_monotonic",
        "kl_basis",
        "kl_polynomial",
        "mult_kl_s",
        "standard_basis",
    ],
    "regions": [
        "RegionKind",
        "RegionTag",
        "ThetaIndex",
        "classify",
        "s_mn",
        "theta",
        "theta1",
        "theta2",
        "x_chain",
    ],
    "closedform": [
        "ClosedFormError",
        "appendix_identity_check",
        "kl_column",
        "kl_fast",
        "product_identity_check",
    ],
    "poset": [
        "Interval",
        "IsoCertificate",
        "NotComparableError",
        "build_interval",
        "fingerprint",
        "is_isomorphic",
        "parents",
    ],
    "verify": [
        "VerificationReport",
        "structural_lemma_checks",
        "verify_closed_forms",
        "verify_conjecture",
        "verify_lemma_suite",
    ],
}


def test_lazy_names_are_their_modules_objects():
    # the package exports these without importing their modules up front
    assert bruhat_forge._LAZY == {n: m for m, names in LAZY_NAMES.items() for n in names}
    for mod_name, names in LAZY_NAMES.items():
        module = importlib.import_module(f"bruhat_forge.{mod_name}")
        for name in names:
            assert getattr(bruhat_forge, name) is getattr(module, name)
    with pytest.raises(AttributeError, match="^module 'bruhat_forge' has no attribute 'no_such'$"):
        bruhat_forge.no_such


def test_the_package_holds_four_memos():
    # every module-level function with a cache to clear, named by the module
    # that defines it; a new memo is new state that a reset must reach
    memos = sorted(
        f"{name.removeprefix('bruhat_forge.')}.{attr}"
        for name in MODULES
        for attr, obj in vars(importlib.import_module(name)).items()
        if hasattr(obj, "cache_clear") and getattr(obj, "__module__", None) == name
    )
    assert memos == [
        "closedform.kl_column",
        "hecke._kl_rows",
        "verify.interval_survey",
        "weyl.ball",
    ]


def test_readme_library_example_runs():
    # the README's python block uses the public API; a rename must not leave it stale
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, re.S | re.M)
    assert len(blocks) == 1 and "kl_column" in blocks[0]
    exec(compile(blocks[0], "README.md", "exec"), {})


def test_readme_census_sample_is_the_cli_output(capsys):
    # the README's census sample is the first rows that census prints at
    # --max-length 7; a change to the survey or the table must update it
    from bruhat_forge import cli

    readme = (Path(__file__).parent.parent / "README.md").read_text()
    blocks = re.findall(r"\n\n((?:    .*\n)+)\n\(the first rows at `--max-length 7`\)", readme)
    assert len(blocks) == 1
    sample = [line.removeprefix("    ") for line in blocks[0].splitlines()]
    assert cli.main(["census", "--max-length", "7"]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert len(sample) >= 2 and printed[: len(sample)] == sample
