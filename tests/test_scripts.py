"""The scripts under scripts/, run as a user runs them."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


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


def test_census_and_full_verification_scripts(tmp_path):
    proc = _run_script("isomorphism_census.py", "--max-length", "4", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "intervals with l(y) <= 4" in proc.stdout

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


def test_scripts_reject_negative_lengths(tmp_path):
    for name in ("isomorphism_census.py", "run_full_verification.py"):
        proc = _run_script(name, "--max-length", "-1", cwd=tmp_path)
        assert proc.returncode == 2, (name, proc.stderr)
        assert "must be >= 0" in proc.stderr
        assert "Traceback" not in proc.stderr
