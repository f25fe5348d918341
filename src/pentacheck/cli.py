"""Command-line driver.

    pentacheck verify all [--report PATH] [--truncation N]
    pentacheck verify CHECK_ID [...same flags]
    pentacheck list
    pentacheck render --variant NAME --out PATH

Exit codes: 0 every check passed, 1 some check failed or errored,
2 usage or input/output problems.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .arrangement import build_arrangement
from .checks import RunContext, all_checks, get_check, run_check
from .series import DEFAULT_TRUNCATION


def _report_json(entries: list) -> str:
    doc = {"version": __version__, "entries": entries}
    return json.dumps(doc, indent=2, sort_keys=False) + "\n"


def _write_report(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pentacheck",
        description="exact verification of pentagon arrangements and the "
        "cusp-deformation counterexample",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run one check or all of them")
    verify.add_argument("target", help="a check id, or 'all'")
    verify.add_argument("--report", help="write the JSON report to this path")
    verify.add_argument(
        "--truncation",
        type=_positive_int,
        default=DEFAULT_TRUNCATION,
        help=f"series truncation order (default {DEFAULT_TRUNCATION})",
    )

    sub.add_parser("list", help="list registered check ids")

    render = sub.add_parser("render", help="render an arrangement to SVG")
    render.add_argument("--variant", required=True, help="arrangement name")
    render.add_argument("--out", required=True, help="output SVG path")
    return parser


def cmd_verify(args) -> int:
    ctx = RunContext(truncation=args.truncation)
    if args.target == "all":
        checks = all_checks()
    else:
        try:
            checks = [get_check(args.target)]
        except KeyError as exc:
            print(exc.args[0], file=sys.stderr)
            return 2
    entries = [run_check(c, ctx) for c in checks]
    for e in entries:
        print(f"{e['status']:5}  {e['check_id']}")
    text = _report_json(entries)
    if args.report:
        try:
            _write_report(args.report, text)
        except OSError as exc:
            print(f"cannot write report: {exc}", file=sys.stderr)
            return 2
    failed = [e for e in entries if e["status"] != "pass"]
    if failed:
        print(f"{len(failed)} of {len(entries)} checks did not pass")
        return 1
    print(f"all {len(entries)} checks passed")
    return 0


def cmd_list() -> int:
    for c in all_checks():
        print(c.check_id)
    return 0


def cmd_render(args) -> int:
    from .svg import render_svg

    try:
        arr = build_arrangement(args.variant)
    except (KeyError, ValueError) as exc:
        print(f"cannot build variant {args.variant!r}: {exc}", file=sys.stderr)
        return 2
    try:
        render_svg(arr, args.out)
    except OSError as exc:
        print(f"cannot write SVG: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {args.out}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "verify":
        return cmd_verify(args)
    if args.command == "list":
        return cmd_list()
    return cmd_render(args)


if __name__ == "__main__":
    sys.exit(main())
