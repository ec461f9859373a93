#!/usr/bin/env python3
"""Extended verification run: the conjecture sweep at a larger bound
plus every lemma suite, with JSON/CSV reports written next to the
script's working directory.

Usage: python scripts/run_full_verification.py [--max-length 10]
"""

import argparse
import csv
import sys
import time

from bruhat_forge.cli import _length
from bruhat_forge.verify import (
    verify_closed_forms,
    verify_conjecture,
    verify_lemma_suite,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-length", type=_length, default=10)
    parser.add_argument("--json-out", default="verification_report.json")
    parser.add_argument("--csv-out", default="verification_report.csv")
    args = parser.parse_args()

    t0 = time.perf_counter()
    reports = [
        verify_conjecture(args.max_length),
        verify_closed_forms(),
        verify_lemma_suite(
            monotonicity_bound=args.max_length,
            z_bound=args.max_length,
            structural_bound=args.max_length,
        ),
    ]
    ok = True
    for report in reports:
        print("\n".join(report.summary_lines()))
        ok &= report.passed
    print(f"total elapsed: {time.perf_counter() - t0:.1f}s")

    with open(args.json_out, "w") as fh:
        fh.write("[\n" + ",\n".join(r.to_json() for r in reports) + "\n]\n")
    with open(args.csv_out, "w", newline="") as fh:
        writer = csv.writer(fh)
        for report in reports:
            writer.writerows(report.to_csv_rows())
            writer.writerows(report.census_csv_rows())
    print(f"reports written to {args.json_out} and {args.csv_out}")
    return 0 if ok else 2


if __name__ == "__main__":
    sys.exit(main())
