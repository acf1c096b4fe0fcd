"""Command line front end: run a session file, report text or JSON.

Exit codes: 0 when every command succeeded and every check passed, 1 when
a check failed, 2 on any error (bad input, undeclared names, diverging
computations).
"""

import argparse
import json
import sys
from fractions import Fraction

from .dsl import parse_session, run_session
from .errors import FolindexError
from .localalgebra import DEFAULT_MAX_STEPS


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="folindex",
        description="exact indices and residues of foliation singularities")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    run = sub.add_parser("run", help="execute a session file")
    run.add_argument("file", help="session file path")
    run.add_argument("--format", choices=("text", "json"), default="text")
    run.add_argument("--oracle", choices=("on", "off"), default="off",
                     help="recompute supported indices by the truncated "
                          "contraction-complex oracle")
    run.add_argument("--steps", type=int, default=DEFAULT_MAX_STEPS,
                     metavar="N",
                     help="standard-basis step cap of each whole command "
                          "(default %(default)s)")
    return parser


def _jsonable(value):
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return int(value)
        return "%d/%d" % (value.numerator, value.denominator)
    if isinstance(value, bool) or isinstance(value, int):
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return str(value)


def _print_text(records, out):
    for rec in records:
        out.write("== %s\n" % rec["command"])
        for key, val in rec["inputs"].items():
            out.write("   %s: %s\n" % (key, val))
        out.write("   value: %s\n" % rec["value"])
        out.write("   method: %s\n" % rec["method"])
        for label, ok, detail in rec["crosschecks"]:
            out.write("   %s: %s (%s)\n"
                      % (label, "ok" if ok else "MISMATCH", detail))
        out.write("   verdict: %s\n" % rec["verdict"])


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        with open(args.file, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    try:
        session = parse_session(text)
        records = run_session(
            session,
            oracle=args.oracle == "on",
            max_steps=args.steps,
        )
    except FolindexError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    if args.format == "json":
        json.dump({"records": _jsonable(records)}, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        _print_text(records, sys.stdout)
    return 1 if any(rec["verdict"] == "FAIL" for rec in records) else 0


if __name__ == "__main__":
    raise SystemExit(main())
