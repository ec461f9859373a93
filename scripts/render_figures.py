#!/usr/bin/env python3
"""Emit the standard gallery of SVG pictures through `bruhat-forge
render`: the four-region shading of the alcove plane (radius 8), a
theta lower interval, and its extension across the distinguished wall.
Every argument other than --out-dir goes on to each `bruhat-forge
render` call, so `--radius R` overrides the radius of the regions.

Usage: python scripts/render_figures.py [--out-dir figures] [--radius 8]
"""

import argparse
import pathlib
import sys

from bruhat_forge import cli, regions

FIGURES = [
    ("four_regions", ["--regions", "--radius", "8"]),
    ("theta_1_3_lower", ["--interval", "", regions.theta((1, 3)).word()]),
    ("theta_1_3_s_lower", ["--interval", "", regions.theta1((1, 3)).word()]),
]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="figures")
    args, rest = parser.parse_known_args()

    out = pathlib.Path(args.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # such as --out-dir naming a file; reported like the CLI's errors
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, argv in FIGURES:
        path = out / (name + ".svg")
        code = cli.main(["render", *argv, *rest, "-o", str(path)])
        if code:
            return code
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
