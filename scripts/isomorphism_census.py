#!/usr/bin/env python3
"""Print the census of Bruhat-interval isomorphism classes per span,
with the largest class sizes of each span: `bruhat-forge census`.
Class counts are reported, not asserted: no closed form for them is
known.

Usage: python scripts/isomorphism_census.py [--max-length 8]
"""

import sys

from bruhat_forge import cli

if __name__ == "__main__":
    sys.exit(cli.main(["census", *sys.argv[1:]]))
