#!/usr/bin/env python3
"""Regenerate class_counts.json, the one pinned figure of the sweep check.

The number of isomorphism classes of Bruhat intervals has no closed
form, so the sweep compares the report's class count and per-span census
with this file.  Regenerate it (from the repository root) only after a
change that is meant to alter the classing:

    python3 perfbench/regen_class_counts.py

It runs the interval survey for each sweep length in a fresh process and
takes about half a minute.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LENGTHS = (8, 10)

_SURVEY = """
import json, sys
from bruhat_forge import verify
survey = verify.interval_survey(int(sys.argv[1]))
print(json.dumps({"classes": len(survey.classes), "census": survey.census_rows()}))
"""


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    counts = {}
    for length in LENGTHS:
        proc = subprocess.run([sys.executable, "-c", _SURVEY, str(length)],
                              capture_output=True, text=True, env=env, check=True)
        counts[str(length)] = json.loads(proc.stdout)
    (HERE / "class_counts.json").write_text(json.dumps(counts, indent=1) + "\n")
    print(json.dumps({k: v["classes"] for k, v in counts.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
