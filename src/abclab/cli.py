"""Command line interface.

    abclab run <scenario.yaml>   [--output PATH] [--format csv|json]
    abclab sweep <scenario.yaml> [--output PATH] [--format csv|json]
    abclab verify [--seed N]     [--output PATH] [--format csv|json]

Exit codes: 0 all checks pass, 1 check failures, 2 validation or parse
errors, 3 runtime or numerical errors.  When no output path is given the
report document goes to stdout and the summary lines to stderr.
"""

from __future__ import annotations

import argparse
import sys

from .errors import (
    ConfigurationError,
    ConsistencyError,
    DomainError,
    NumericalError,
    ScenarioParseError,
    SingularityError,
    ValidationError,
)
from .verify import RunReport, emit, run_verify_suite

EXIT_OK = 0
EXIT_CHECK_FAILURES = 1
EXIT_INVALID_INPUT = 2
EXIT_RUNTIME = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="abclab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, needs_file in (("run", True), ("sweep", True), ("verify", False)):
        cmd = sub.add_parser(name)
        if needs_file:
            cmd.add_argument("file", help="scenario YAML document")
        else:
            cmd.add_argument("--seed", type=int, default=42)
        cmd.add_argument("--output", default=None, help="report file path (default stdout)")
        cmd.add_argument("--format", choices=("csv", "json"), default=None)
    return parser


def _summarize(report: RunReport, stream):
    for warning in report.scenario.get("warnings", []) or []:
        print(f"WARN {warning}", file=stream)
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"{status} {check.name} (actual={check.actual!r}, tol={check.tol!r})", file=stream)
    errored = [r for r in report.rows if r.get("error")]
    for row in errored:
        print(f"ERROR sweep_index={row.get('sweep_index')}: {row['error']}", file=stream)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            if args.seed < 0:
                raise ValidationError(f"--seed must be a non-negative integer, got {args.seed}")
            report = run_verify_suite(args.seed)
            fmt = args.format or "json"
            path = args.output
        else:
            from .scenario import load_scenario, run_scenario  # PyYAML loads only for run and sweep

            scenario = load_scenario(args.file)
            if args.command == "sweep" and scenario.sweep is None:
                raise ValidationError("sweep: scenario has no sweep block")
            if args.command == "run" and scenario.sweep is not None:
                raise ValidationError("run: scenario has a sweep block; use 'abclab sweep'")
            report = run_scenario(scenario)
            fmt = args.format or scenario.output.format
            path = args.output if args.output is not None else scenario.output.path
        emit(report, fmt, path)
        _summarize(report, sys.stderr if path is None else sys.stdout)
        return EXIT_OK if report.all_passed else EXIT_CHECK_FAILURES
    except (ScenarioParseError, ValidationError, ConfigurationError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except (SingularityError, NumericalError, ConsistencyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
