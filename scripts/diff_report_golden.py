#!/usr/bin/env python
"""Diff a RunReport JSON file's results payload against a golden fixture.

Used by the CI ``api-smoke`` job:

    repro-ftes run fig6a --preset fast --output fig6a_report.json
    python scripts/diff_report_golden.py fig6a_report.json tests/golden/fig6a_fast.json

Exits non-zero with a keyed diff when the report's results payload does not
match the fixture exactly — any drift is a correctness bug by the kernel
families' bit-identity contract, not noise.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def _flatten(value, prefix=""):
    """Flatten nested dicts to dotted-key leaves for a readable diff."""
    if isinstance(value, dict):
        flat = {}
        for key, child in value.items():
            flat.update(_flatten(child, f"{prefix}{key}."))
        return flat
    return {prefix.rstrip("."): value}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("report", type=Path, help="RunReport JSON written by `repro-ftes run --output`")
    parser.add_argument("golden", type=Path, help="golden fixture JSON to compare against")
    arguments = parser.parse_args()

    report = json.loads(arguments.report.read_text(encoding="utf-8"))
    golden = json.loads(arguments.golden.read_text(encoding="utf-8"))
    results = report.get("results")
    if results is None:
        print(f"ERROR: {arguments.report} has no 'results' payload", file=sys.stderr)
        return 2

    if results == golden:
        print(
            f"OK: {arguments.report} results payload matches {arguments.golden} "
            f"({report.get('scenario')!r})"
        )
        return 0

    produced = _flatten(results)
    expected = _flatten(golden)
    for key in sorted(set(produced) | set(expected)):
        left, right = produced.get(key), expected.get(key)
        if left != right:
            print(f"DIFF {key}: report={left!r} golden={right!r}", file=sys.stderr)
    print("ERROR: results payload diverges from the golden fixture", file=sys.stderr)
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
