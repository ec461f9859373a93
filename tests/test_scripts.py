"""The scripts under scripts/, run as a user runs them: each but
survey_digest.py is a preset of the bruhat-forge command line and shares
its errors and exit codes."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import oracles
from bruhat_forge import regions, verify, weyl
from bruhat_forge.cli import main
from bruhat_forge.render import render_interval, render_regions

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted(p.name for p in (ROOT / "scripts").glob("*.py"))


def _run_script(name, *argv, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *argv],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


def _without_elapsed(obj):
    if isinstance(obj, dict):
        return {k: _without_elapsed(v) for k, v in obj.items() if k != "elapsed"}
    if isinstance(obj, list):
        return [_without_elapsed(v) for v in obj]
    return obj


def test_census_and_full_verification_scripts(tmp_path, capsys):
    proc = _run_script("isomorphism_census.py", "--max-length", "4", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert main(["census", "--max-length", "4"]) == 0
    assert proc.stdout == capsys.readouterr().out
    assert proc.stdout.splitlines()[0].split() == ["span", "classes", "intervals", "class", "sizes"]

    jpath = tmp_path / "report.json"
    cpath = tmp_path / "report.csv"
    proc = _run_script(
        "run_full_verification.py",
        "--max-length",
        "3",
        "--json-out",
        str(jpath),
        "--csv-out",
        str(cpath),
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    reports = json.loads(jpath.read_text())
    assert [r["scope"]["suite"] for r in reports] == ["conjecture", "closed-forms", "lemmas"]
    assert all(r["passed"] for r in reports)
    assert cpath.exists()

    # the script is `verify all` with defaults in front of the user's arguments
    cli_path = tmp_path / "cli.json"
    assert main(["verify", "all", "--max-length", "3", "--json-out", str(cli_path)]) == 0
    assert _without_elapsed(reports) == _without_elapsed(json.loads(cli_path.read_text()))


def test_full_verification_default_report_paths(tmp_path):
    proc = _run_script("run_full_verification.py", "--max-length", "0", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    reports = json.loads((tmp_path / "verification_report.json").read_text())
    assert [r["scope"]["suite"] for r in reports] == ["conjecture", "closed-forms", "lemmas"]
    assert (tmp_path / "verification_report.csv").exists()


LENGTH_OPTIONS = [
    ("isomorphism_census.py", "--max-length"),
    ("run_full_verification.py", "--max-length"),
    ("render_figures.py", "--radius"),
    ("survey_digest.py", "--max-length"),
]


def test_scripts_reject_negative_lengths(tmp_path):
    for name, option in LENGTH_OPTIONS:
        proc = _run_script(name, option, "-1", cwd=tmp_path)
        assert proc.returncode == 1, (name, proc.stderr)
        assert "usage:" in proc.stderr and "must be >= 0" in proc.stderr
        assert "Traceback" not in proc.stderr


def test_scripts_report_lengths_beyond_the_cap(tmp_path):
    for name, option in LENGTH_OPTIONS:
        proc = _run_script(name, option, "100", cwd=tmp_path)
        assert proc.returncode == 1, (name, proc.stderr)
        assert proc.stderr.startswith("error:") and "cap" in proc.stderr
        assert "Traceback" not in proc.stderr
    assert not list(tmp_path.glob("verification_report.*"))
    assert not list(tmp_path.glob("figures/*.svg"))


@pytest.mark.parametrize("name", SCRIPTS)
def test_script_help(tmp_path, name):
    proc = _run_script(name, "--help", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "usage:" in proc.stdout


def test_survey_digest_matches_the_orbit_table_reference(tmp_path):
    proc = _run_script("survey_digest.py", "--max-length", "4", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    path = ROOT / "scripts" / "survey_digest.py"
    spec = importlib.util.spec_from_file_location("survey_digest", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    # the reference searches every first pair, so it gives the pairs,
    # representatives and member order; restriction changes certificates
    # alone, and those are the survey's
    survey, ref = verify.interval_survey(4), oracles.orbit_table_survey(4)
    classes = [
        verify.IsoClass(ref_cls.rep, ref_cls.members, cls.certs)
        for cls, ref_cls in zip(survey.classes, ref.classes, strict=True)
    ]
    expected = script.digest(verify.Survey(4, ref.intervals, classes))
    assert len(expected) == 64
    assert proc.stdout.split() == [expected, "max_length=4", "intervals=222", "classes=7"]


def test_survey_digest_is_pinned_at_length_8(tmp_path):
    # classes in founding order: a change to how intervals are built,
    # refined, searched or restricted that moves any class, member or
    # certificate moves this digest
    proc = _run_script("survey_digest.py", "--max-length", "8", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [
        "36c1b4f9a3561eccb3f7b7f929bd2c5720e7e089836720f3a89b960695bb6d01",
        "max_length=8",
        "intervals=3180",
        "classes=86",
    ]


def test_survey_digest_is_pinned_at_length_12(tmp_path):
    # the search breaks ties by color; from L=11 on, some intervals have
    # rank-mates that one round of refinement leaves together, so this
    # pins certificates that the length-8 digest does not reach
    proc = _run_script("survey_digest.py", "--max-length", "12", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [
        "4a0d6c4df506e475df407d7464c5689fb215233db16dea9f963e8200f94e4644",
        "max_length=12",
        "intervals=15786",
        "classes=467",
    ]


def test_survey_digest_is_pinned_at_length_16(tmp_path):
    # 49 tops least in their orbits have a non-trivial stabiliser and 406
    # of 601 searches fail (47 of 157 at L=12), so this pins the
    # stabiliser test of the bottoms and the failed searches more widely
    proc = _run_script("survey_digest.py", "--max-length", "16", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [
        "d2b1acad1f0a0e1b1f13b76825c5ffc99734a8e011fc6f7e90636c2c382077f0",
        "max_length=16",
        "intervals=49560",
        "classes=1432",
    ]


def test_render_figures_writes_gallery(tmp_path):
    out = tmp_path / "figs"
    proc = _run_script("render_figures.py", "--out-dir", str(out), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    identity = weyl.identity()
    expected = {
        "four_regions.svg": render_regions(8),
        "theta_1_3_lower.svg": render_interval(identity, regions.theta((1, 3))),
        "theta_1_3_s_lower.svg": render_interval(identity, regions.theta1((1, 3))),
    }
    assert sorted(p.name for p in out.iterdir()) == sorted(expected)
    for name, doc in expected.items():
        assert (out / name).read_text() == doc + "\n"


def test_render_figures_out_dir_naming_a_file_exits_one(tmp_path):
    (tmp_path / "README.md").write_text("not a directory\n")
    proc = _run_script("render_figures.py", "--out-dir", "README.md", cwd=tmp_path)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr
    assert proc.stdout == ""
    assert (tmp_path / "README.md").read_text() == "not a directory\n"
