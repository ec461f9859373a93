#!/usr/bin/env python3
"""Print one sha256 over the interval survey to --max-length: its classes
in founding order, each class's representative and member order, every
certificate as a word map, and the census.  Two checkouts that print the
same digest classify every interval alike.

Usage: python scripts/survey_digest.py [--max-length 8]
"""

import argparse
import hashlib
import json
import sys

from bruhat_forge import verify, weyl


def digest(survey) -> str:
    """The sha256 hex digest of a verify.Survey, certificates read as word maps."""

    def words(pair):
        return [z.word() for z in pair]

    classes = [
        {
            "rep": words(cls.rep),
            "members": [words(m) for m in cls.members],
            "certs": [
                [words(m), sorted((z.word(), w.word()) for z, w in cls.certs[m].mapping.items())]
                for m in cls.members
                if m in cls.certs
            ],
        }
        for cls in survey.classes
    ]
    blob = json.dumps([classes, survey.census_rows()], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def _length(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--max-length", type=_length, default=8)
    args = parser.parse_args()
    try:
        survey = verify.interval_survey(args.max_length)
    except weyl.ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(
        f"{digest(survey)}  max_length={args.max_length} "
        f"intervals={len(survey.intervals)} classes={len(survey.classes)}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
