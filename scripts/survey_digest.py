#!/usr/bin/env python3
"""Print one sha256 over the interval survey to --max-length: its classes
in founding order, each class's representative and member order, every
certificate as a word map, and the census.  Two checkouts that print the
same digest classify every interval alike.

Usage: python scripts/survey_digest.py [--max-length 8]
"""

import hashlib
import json
import sys

from bruhat_forge import cli, verify, weyl


def digest(survey) -> str:
    """The sha256 hex digest of a verify.Survey, certificates read as word maps.

    The hash is that of json.dumps([classes, census], sort_keys=True), fed
    one class at a time with the separators json.dumps writes, so no more
    than one class is ever held as JSON."""

    # the word of each ball index, read once per digest
    table = [z.word() for z in weyl.enumerate_up_to_length(survey.max_length)]

    def words(pair):
        return [table[z.ball_index] for z in pair]

    def word_map(cert):
        return sorted((table[i], table[j]) for i, j in cert.index.items())

    sha = hashlib.sha256(b"[[")
    for k, cls in enumerate(survey.classes):
        obj = {
            "rep": words(cls.rep),
            "members": [words(m) for m in cls.members],
            "certs": [[words(m), word_map(cert)] for m, cert in cls.certs.items()],
        }
        if k:
            sha.update(b", ")
        sha.update(json.dumps(obj, sort_keys=True).encode())
    sha.update(b"], " + json.dumps(survey.census_rows(), sort_keys=True).encode() + b"]")
    return sha.hexdigest()


def main() -> int:
    # the CLI's parser and length type: usage errors exit 1, as the CLI's do
    parser = cli._Parser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--max-length", type=cli._length, default=8)
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
