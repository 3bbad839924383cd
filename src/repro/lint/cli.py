"""Command-line driver of ``repro.lint`` (``repro-ftes lint``).

Exit codes: ``0`` — no violations; ``1`` — at least one violation (each is
reported); ``2`` — usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.lint import RULES, LintReport, Project, run_lint


def default_package_dir() -> Path:
    """The installed ``repro`` package directory (the default lint root)."""
    import repro

    return Path(repro.__file__).resolve().parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-ftes lint",
        description=(
            "AST-based invariant checker: fingerprint purity, kernel "
            "contracts, structure-token safety, seeded RNGs, Decimal/float "
            "hygiene, fork/pickle safety, worker isolation, report "
            "JSON-serializability"
        ),
    )
    parser.add_argument(
        "--root",
        type=Path,
        default=None,
        help="package directory to lint (default: the installed repro package)",
    )
    parser.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list the rules and exit",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    arguments = build_parser().parse_args(argv)

    if arguments.list_rules:
        for rule in RULES:
            print(f"{rule.rule_id}  {rule.title}")
            print(f"      {rule.rationale}")
        return 0

    package_dir = (
        Path(arguments.root).resolve() if arguments.root else default_package_dir()
    )
    if not package_dir.is_dir():
        print(f"error: lint root {package_dir} is not a directory", file=sys.stderr)
        return 2

    report = run_lint(Project.from_directory(package_dir))
    if arguments.format == "json":
        print(json.dumps(report.as_dict(), indent=2))
    else:
        _print_text(report)
    return report.exit_code()


def _print_text(report: LintReport) -> None:
    for violation in report.violations:
        print(violation.format_text())
    print(
        f"{report.checked_modules} modules checked "
        f"({', '.join(report.rule_ids)}): "
        f"{len(report.violations)} violation(s)"
    )


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
