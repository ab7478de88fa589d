"""Command-line front end with CI-friendly exit codes.

Exit codes: 0 data valid, 1 data invalid, 2 specification error,
3 I/O or grounder-bridge failure, 4 internal error (a defect in aspcheck;
it prints one line, no traceback).
"""

from __future__ import annotations

import argparse
import os
import shlex
import sys

from . import datalog, engine
from .diagnostics import render_report
from .schema import SpecError, check_spec, load_spec, parse_spec
from .terms import gc_paused

GROUNDER_ENV = "ASPCHECK_GROUNDER"

EXIT_VALID = 0
EXIT_INVALID = 1
EXIT_SPEC_ERROR = 2
EXIT_IO_ERROR = 3
EXIT_INTERNAL_ERROR = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aspcheck",
        description="Validate ASP facts and programs against YAML specifications.")
    sub = parser.add_subparsers(dest="command", required=True)

    validate = sub.add_parser("validate", help="validate data against a specification")
    validate.add_argument("paths", nargs="*",
                          help="specification (unless --spec is given) followed by"
                               " fact/program files; '-' reads from stdin")
    validate.add_argument("--spec", help="specification file")
    validate.add_argument("--mode", choices=("builtin", "bridge"), default="builtin")
    validate.add_argument("--grounder-cmd",
                          default=os.environ.get(GROUNDER_ENV),
                          help="external grounder command for bridge mode"
                               f" (default: ${GROUNDER_ENV})")
    validate.add_argument("--grounder-timeout", type=float, default=60.0)
    validate.add_argument("--all-errors", action="store_true",
                          help="collect every diagnostic instead of failing fast")
    validate.add_argument("--valid-only", action="store_true",
                          help="accepted for compatibility; validation never"
                               " searches for models")
    validate.add_argument("--format", choices=("text", "jsonl"), default="text")

    check = sub.add_parser("check", help="check a specification without data")
    check.add_argument("spec")

    return parser


# Paused over the whole command, the collector does not walk each nested
# paused call's objects as that call returns; it resumes once they are dropped.
@gc_paused()
def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "validate":
            return _cmd_validate(args)
        return _cmd_check(args)
    except SpecError as exc:
        for diagnostic in exc.diagnostics:
            print(diagnostic.render(), file=sys.stderr)
        return EXIT_SPEC_ERROR
    except (OSError, UnicodeDecodeError) as exc:
        print(f"aspcheck: {exc}", file=sys.stderr)
        return EXIT_IO_ERROR
    except Exception as exc:  # a defect: one line, never a traceback
        print(f"aspcheck: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _cmd_validate(args) -> int:
    paths = list(args.paths)
    spec_path = args.spec
    if spec_path is None:
        if not paths:
            print("aspcheck: no specification given", file=sys.stderr)
            return EXIT_SPEC_ERROR
        spec_path = paths.pop(0)

    spec = load_spec(_read(spec_path))
    input_text = "\n".join(_read(p) for p in paths)

    options = engine.RunOptions(fail_fast=not args.all_errors)

    facts = []
    if args.mode == "bridge":
        if not args.grounder_cmd:
            print("aspcheck: bridge mode needs --grounder-cmd or"
                  f" ${GROUNDER_ENV}", file=sys.stderr)
            return EXIT_IO_ERROR
        from .emit import GrounderBridgeConfig
        options.grounder = GrounderBridgeConfig(
            command=tuple(shlex.split(args.grounder_cmd)),
            timeout=args.grounder_timeout)
        options.program_text = input_text
    else:
        # The input is parsed once, on its own, so data problems are
        # reported as data problems, with positions in the user's files.
        try:
            program = datalog.parse_program(input_text)
        except datalog.PROGRAM_ERRORS as exc:
            print(f"invalid input: {exc}", file=sys.stderr)
            return EXIT_INVALID
        facts = program.facts
        options.rules = tuple(program.rules)

    report = engine.run(spec, facts, options)
    rendered = render_report(report, args.format)
    if rendered:
        print(rendered)

    if report.verdict == "valid":
        return EXIT_VALID
    if report.verdict == "invalid":
        return EXIT_INVALID
    if any(d.rule == "bridge-error" for d in report.diagnostics):
        return EXIT_IO_ERROR
    return EXIT_SPEC_ERROR


def _cmd_check(args) -> int:
    spec = parse_spec(_read(args.spec))
    diagnostics = check_spec(spec)
    _, problem = engine.parse_asp(spec)
    if problem is not None:
        diagnostics.append(problem)
    for diagnostic in diagnostics:
        print(diagnostic.render())
    return EXIT_VALID if not diagnostics else EXIT_SPEC_ERROR


if __name__ == "__main__":
    sys.exit(main())
