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
    """The sha256 hex digest of a verify.Survey, certificates read as word maps.

    The hash is that of json.dumps([classes, census], sort_keys=True), fed
    one class at a time with the separators json.dumps writes, so no more
    than one class is ever held as JSON."""

    def words(pair):
        return [z.word() for z in pair]

    def word_map(cert):
        at = weyl.ball_element
        return sorted((at(i).word(), at(j).word()) for i, j in cert.index.items())

    sha = hashlib.sha256(b"[[")
    for k, cls in enumerate(survey.classes):
        obj = {
            "rep": words(cls.rep),
            "members": [words(m) for m in cls.members],
            "certs": [[words(m), word_map(cls.certs[m])] for m in cls.members if m in cls.certs],
        }
        if k:
            sha.update(b", ")
        sha.update(json.dumps(obj, sort_keys=True).encode())
    sha.update(b"], " + json.dumps(survey.census_rows(), sort_keys=True).encode() + b"]")
    return sha.hexdigest()


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
