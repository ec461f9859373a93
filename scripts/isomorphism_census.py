#!/usr/bin/env python3
"""Print the census of Bruhat-interval isomorphism classes per span,
together with a per-span breakdown of class sizes.  Class counts are
reported, not asserted: no closed form for them is known.

Usage: python scripts/isomorphism_census.py [--max-length 8]
"""

import argparse
import collections

from bruhat_forge.cli import _length
from bruhat_forge.verify import interval_survey


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-length", type=_length, default=8)
    args = parser.parse_args()

    survey = interval_survey(args.max_length)
    print(f"intervals with l(y) <= {args.max_length}: {len(survey.intervals)}")
    print(f"{'span':>5} {'classes':>8} {'intervals':>10}  class sizes")
    sizes_by_span: dict[int, list[int]] = collections.defaultdict(list)
    for cls in survey.classes:
        x, y = cls.rep
        sizes_by_span[y.length - x.length].append(len(cls.members))
    for row in survey.census_rows():
        sizes = sorted(sizes_by_span[row["span"]], reverse=True)
        shown = ", ".join(map(str, sizes[:12])) + (", ..." if len(sizes) > 12 else "")
        print(f"{row['span']:>5} {row['classes']:>8} {row['intervals']:>10}  [{shown}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
