#!/usr/bin/env python3
"""Reference figures for perfbench/README.md (recorded, not gated).

Each case runs in a fresh Python process, one after another, and the
script prints one JSON object with wall seconds and peak RSS per case:

* ``verify_conjecture(L, jobs=1)`` for L = 8 and 12;
* ``interval_survey(10)`` at jobs=1 and jobs=2;
* ``scripts/run_full_verification.py --max-length 12`` at its default
  jobs and at jobs=1.

Run from the repository root:  python3 perfbench/reference.py
It takes several minutes.  Report files go to .bench_out/.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"

_CASE = """
import json, resource, sys, time
t0 = time.perf_counter()
from bruhat_forge import verify
kind, arg, jobs = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
t1 = time.perf_counter()
if kind == "conjecture":
    ok = verify.verify_conjecture(arg, jobs=jobs).passed
else:
    ok = bool(verify.interval_survey(arg, jobs=jobs).classes)
t2 = time.perf_counter()
kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
         resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
print(json.dumps({"ok": ok, "import_s": t1 - t0, "wall_s": t2 - t1, "peak_rss_mb": kb / 1024}))
"""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _case(kind: str, arg: int, jobs: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", _CASE, kind, str(arg), str(jobs)],
        capture_output=True, text=True, env=_env(), timeout=900, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _full(jobs: int | None) -> dict:
    cmd = [sys.executable, str(ROOT / "scripts" / "run_full_verification.py"), "--max-length", "12"]
    if jobs is not None:
        cmd += ["--jobs", str(jobs)]
    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, env=_env(), cwd=OUT, timeout=1800)
    wall = time.perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "exit": proc.returncode,
        "wall_s": wall,
        # RUSAGE_CHILDREN is a high-water mark over every child so far
        "peak_rss_mb": after / 1024 if after > before else None,
        "last_line": proc.stdout.strip().splitlines()[-2:] if proc.stdout else [],
    }


def main() -> int:
    OUT.mkdir(exist_ok=True)
    figures = {
        "cores": os.cpu_count(),
        "python": sys.version.split()[0],
        "verify_conjecture(8)": _case("conjecture", 8, 1),
        "verify_conjecture(12)": _case("conjecture", 12, 1),
        "interval_survey(10, jobs=1)": _case("survey", 10, 1),
        "interval_survey(10, jobs=2)": _case("survey", 10, 2),
        "run_full_verification --max-length 12 (default jobs=4)": _full(None),
        "run_full_verification --max-length 12 --jobs 1": _full(1),
    }
    print(json.dumps(figures, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
