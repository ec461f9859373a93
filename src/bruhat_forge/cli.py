"""
Command-line front end.

Words on the command line are digit strings with labels read mod 3
("1234321" works as well as "1201021"); the empty string "" is the
identity.  Exit codes: 0 success, 1 usage or bad input, 2 verification
failure, a failed closed form or formula/recursion disagreement.  The
environment variable BRUHAT_FORGE_CACHE points at the on-disk KL cache;
cache hits never change any output.  Each command imports only the
modules it runs: a `kl` answer read from the cache loads neither the
closed forms nor the recursion, and json and csv load only in the
commands that write them.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional

from . import cache as cache_mod
from . import weyl
from .laurent import from_q
from .weyl import Element

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _length(text: str) -> int:
    """argparse type of --max-length and --radius: an int >= 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _element(word: str) -> Element:
    try:
        return weyl.from_word(word)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(1)


def _cmd_kl(args) -> int:
    x = _element(args.x)
    y = _element(args.y)
    ldiff = y.length - x.length
    kl_cache = cache_mod.cache_from_env()

    p_formula = None
    if args.via in ("formula", "both"):
        cached = kl_cache.get(x.word(), y.word()) if kl_cache is not None else None
        if cached is not None:
            p_formula = cached
        else:
            from . import closedform

            try:
                p_formula = closedform.kl_fast(x, y)
            except closedform.ClosedFormError as exc:
                print(f"closed form failed: {exc}", file=sys.stderr)
                return 2
            if kl_cache is not None:
                kl_cache.put(x.word(), y.word(), p_formula)
    p_recursion = None
    if args.via in ("recursion", "both"):
        from . import hecke

        try:
            p_recursion = hecke.kl_polynomial(x, y)[1]
        except weyl.ResourceLimitError as exc:
            if args.via == "recursion":
                raise
            print(f"recursion cross-check unavailable: {exc}", file=sys.stderr)

    if p_formula is not None and p_recursion is not None and p_formula != p_recursion:
        print(
            f"DISAGREEMENT: formula {p_formula} vs recursion {p_recursion}",
            file=sys.stderr,
        )
        return 2
    p = p_formula if p_formula is not None else p_recursion
    if p.is_zero:
        print("not comparable: P = 0")
        return 0
    h = from_q(p, ldiff)
    print(f"h = {h}")
    print(f"P = {p}")
    return 0


def _cmd_classify(args) -> int:
    import json

    from . import regions

    tag = regions.classify(_element(args.word))
    print(json.dumps(tag.to_json_obj(), sort_keys=True))
    return 0


def _cmd_interval(args) -> int:
    import json

    from . import poset

    x = _element(args.x)
    y = _element(args.y)
    try:
        interval = poset.build_interval(x, y)
    except poset.NotComparableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(interval.to_json_obj()))
    else:
        print(
            f"[{x.word() or 'id'}, {y.word() or 'id'}]: {len(interval)} members, "
            f"span {interval.span}, rank sizes {list(interval.rank_sizes)}"
        )
    return 0


def _write_reports(reports, json_fh, csv_fh) -> None:
    # one suite writes one JSON object, ``all`` an array in run order
    if json_fh:
        with json_fh:
            if len(reports) == 1:
                json_fh.write(reports[0].to_json() + "\n")
            else:
                json_fh.write("[\n" + ",\n".join(r.to_json() for r in reports) + "\n]\n")
    if csv_fh:
        import csv

        with csv_fh:
            writer = csv.writer(csv_fh)
            for report in reports:
                writer.writerows(report.to_csv_rows())
                writer.writerows(report.census_csv_rows())


def _cmd_verify(args) -> int:
    from . import verify

    reports, opened = [], []
    bound = args.max_length
    try:
        # the report files are opened before the first suite, so a bad path
        # fails before any work; a run that raises removes them again
        for path, newline in ((args.json_out, None), (args.csv_out, "")):
            opened.append(path and open(path, "w", newline=newline))
        if args.suite in ("conjecture", "all"):
            reports.append(verify.verify_conjecture(8 if bound is None else bound))
        if args.suite in ("closed-forms", "all"):
            kwargs = {} if bound is None else {"max_family_length": bound, "x_max": bound}
            reports.append(verify.verify_closed_forms(**kwargs))
        if args.suite in ("lemmas", "all"):
            kwargs = {} if bound is None else {"max_length": bound, "partition_bound": bound}
            reports.append(verify.verify_lemma_suite(**kwargs))
    except BaseException:
        for fh in filter(None, opened):
            fh.close()
            os.remove(fh.name)
        raise
    ok = True
    for report in reports:
        print("\n".join(report.summary_lines()))
        ok &= report.passed
    _write_reports(reports, *opened)
    print("ALL SUITES PASS" if ok else "SUITE FAILURES PRESENT")
    return 0 if ok else 2


def _cmd_census(args) -> int:
    from . import verify

    survey = verify.interval_survey(args.max_length)
    sizes: dict[int, list[int]] = {}
    for cls in survey.classes:
        x, y = cls.rep
        sizes.setdefault(y.length - x.length, []).append(len(cls.members))
    print(f"{'span':>5} {'classes':>8} {'intervals':>10}  class sizes")
    for row in survey.census_rows():
        # the 12 largest classes of the span
        top = sorted(sizes[row["span"]], reverse=True)
        shown = ", ".join(map(str, top[:12])) + (", ..." if len(top) > 12 else "")
        print(f"{row['span']:>5} {row['classes']:>8} {row['intervals']:>10}  [{shown}]")
    return 0


def _cmd_render(args) -> int:
    from . import poset, render

    if args.interval is not None:
        x = _element(args.interval[0])
        y = _element(args.interval[1])
        try:
            doc = render.render_interval(x, y)
        except poset.NotComparableError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    else:
        doc = render.render_regions(args.radius)
    with open(args.output, "w") as fh:
        fh.write(doc + "\n")
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="bruhat-forge",
        description=(
            "Exact Kazhdan-Lusztig and Bruhat-order computations in the "
            "affine Weyl group of type A2~"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kl", help="KL polynomial of a pair of words")
    p.add_argument("x")
    p.add_argument("y")
    p.add_argument(
        "--via",
        choices=["formula", "recursion", "both"],
        default="both",
        help="computation route; 'both' cross-checks and exits 2 on disagreement",
    )
    p.set_defaults(func=_cmd_kl)

    p = sub.add_parser("classify", help="region tag of a word")
    p.add_argument("word")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("interval", help="Bruhat interval [x, y]")
    p.add_argument("x")
    p.add_argument("y")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_interval)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=["conjecture", "closed-forms", "lemmas", "all"])
    p.add_argument(
        "--max-length",
        type=_length,
        default=None,
        help="bound every length in the chosen suites (l(y), family length, chain n); "
        "index bounds such as m, n <= k are fixed",
    )
    p.add_argument("--json-out")
    p.add_argument("--csv-out")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("census", help="isomorphism classes and class sizes per interval length")
    p.add_argument("--max-length", type=_length, default=8)
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("render", help="SVG of the alcove picture")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--regions", action="store_true")
    group.add_argument("--interval", nargs=2, metavar=("X", "Y"))
    p.add_argument("--radius", type=_length, default=6)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_render)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.func(args)
    except (weyl.ResourceLimitError, cache_mod.CacheFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
