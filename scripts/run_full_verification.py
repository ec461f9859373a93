#!/usr/bin/env python3
"""Extended verification run: `bruhat-forge verify all --max-length 10`
with the JSON and CSV reports written to verification_report.json and
verification_report.csv in the working directory.  Every argument goes
on to `bruhat-forge verify all` after these defaults, so
`--max-length`, `--json-out` and `--csv-out` override them.

Usage: python scripts/run_full_verification.py [--max-length 10]
"""

import sys

from bruhat_forge import cli

DEFAULTS = [
    "--max-length", "10",
    "--json-out", "verification_report.json",
    "--csv-out", "verification_report.csv",
]

if __name__ == "__main__":
    sys.exit(cli.main(["verify", "all", *DEFAULTS, *sys.argv[1:]]))
