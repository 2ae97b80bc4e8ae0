"""Command-line driver: build spaces, run verification suites, emit reports."""

from __future__ import annotations

import argparse
import functools
import sys

from .compactform import ToleranceConfig, positive_finite
from .crossmodel import Family
from .report import VerificationReport
from .suites import SUITES, acceptance_report, run_suite, space_from_flags

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


@functools.cache  # parse_args leaves the parser as it was, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crosscontact",
        description="Numerical verification of invariant contact geometry on "
                    "tangent sphere bundles of compact rank-one symmetric spaces.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one verification suite on one space")
    run.add_argument("--space", required=True, choices=[f.value for f in Family])
    run.add_argument("--n", type=int, default=2,
                     help="dimension parameter (ignored for cayley)")
    run.add_argument("--radius", type=float, default=1.0,
                     help="slice radius; it names the sasakian and uniqueness checks only")
    run.add_argument("--kappa", type=float, default=1.0)
    run.add_argument("--suite", default="all", choices=list(SUITES) + ["all"])
    run.add_argument("--grid", type=int, default=5)
    run.add_argument("--refresh-fixtures", action="store_true",
                     help="recompute frozen reference values and print diffs")

    acc = sub.add_parser("acceptance", help="run the full acceptance gate")
    acc.add_argument("--grid", type=int, default=5)

    for p in (run, acc):
        p.add_argument("--tol", type=float, default=1e-9,
                       help="a residual counts as zero when it is at most this "
                            "threshold, times its scale where that exceeds 1 "
                            "(default 1e-9)")
        p.add_argument("--format", default="text", choices=["text", "json"])
        p.add_argument("--output", default=None, help="write report to a file")
    return parser


def _emit(report: VerificationReport, fmt: str, output: str | None) -> None:
    text = report.to_json() if fmt == "json" else report.to_text()
    if output:
        with open(output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses exit code 2 for usage errors
        return int(exc.code or 0)
    try:
        tol = ToleranceConfig(args.tol)
        if args.command == "acceptance":
            report = acceptance_report(tol, grid=args.grid)
        elif args.refresh_fixtures:
            from . import fixtures
            diffs = fixtures.refresh()
            if diffs:
                print("\n".join(diffs))
                return EXIT_CHECK_FAILED
            print("fixtures up to date")
            return EXIT_OK
        else:
            space = space_from_flags(args.space, args.n)
            report = VerificationReport(config={
                "command": "run", "space": space.label(), "suite": args.suite,
                "radius": args.radius, "kappa": args.kappa,
                "tol": args.tol, "grid": args.grid})
            if not positive_finite(args.radius, args.kappa):
                raise ValueError("radius and kappa must be positive finite numbers")
            run_suite(space, args.suite, args.radius, args.kappa, args.grid,
                      report, tol)
            report.finalize()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:  # exit code 1 means a failed check, which this is not
        print(f"error: too large for the available memory: {exc}", file=sys.stderr)
        return EXIT_USAGE

    try:
        _emit(report, args.format, args.output)
    except OSError as exc:
        print(f"error: cannot write report: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


if __name__ == "__main__":
    raise SystemExit(main())
