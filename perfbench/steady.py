#!/usr/bin/env python3
"""Steadiness report and two-set agreement check for the benchmark.

    python3 perfbench/steady.py report --runs 10 --first-seed 1 --out set1.json
    python3 perfbench/steady.py report --runs 10 --first-seed 1 --out set2.json
    python3 perfbench/steady.py compare set1.json set2.json

``report`` runs ``perfbench/run.py`` once per seed and workload (workloads
interleaved within each seed), then prints for every workload × end-to-end
metric the sample count, median, quartiles and the inter-quartile spread as
a share of the median, next to the metric's bound from ``BENCHMARK.json``.
``compare`` states whether two such sets agree: every spread, ``setup_s``'s
too, within its metric's bound, and the larger of the two medians above the
smaller by no more than the bound, so ``compare(a, b)`` and
``compare(b, a)`` give the same verdict.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
BOUNDS = {entry["name"]: entry for entry in SPEC["end_to_end"]}


def summary(values: List[float]) -> Dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf")}


def collect(workloads: List[str], seeds: List[int], seconds: int) -> Dict[str, Any]:
    samples: Dict[str, Dict[str, List[float]]] = {name: {} for name in workloads}
    failures: List[str] = []
    for seed in seeds:
        for workload in workloads:
            command = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                       "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
            completed = subprocess.run(
                command, cwd=ROOT, capture_output=True, text=True, timeout=600
            )
            lines = completed.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
            if completed.returncode != 0 or result is None or not result["correct"]:
                reasons = [line for line in lines if line.startswith("FAILED:")]
                failures.append(f"{workload} seed={seed}: exit {completed.returncode} "
                                f"{' '.join(reasons)[:600]} {completed.stderr.strip()[-300:]}")
                continue
            for name, metric in result["metrics"].items():
                samples[workload].setdefault(name, []).append(metric["value"])
            print(f"{workload:<12} seed={seed:<4} " + " ".join(
                f"{name}={metric['value']:.4g}" for name, metric in result["metrics"].items()),
                flush=True)
    return {"seconds": seconds, "seeds": seeds, "samples": samples, "failures": failures}


def print_report(data: Dict[str, Any]) -> None:
    print(f"\n{'workload':<12} {'metric':<18} {'n':>3} {'median':>10} {'q1':>10} {'q3':>10} "
          f"{'spread':>7} {'bound':>6}  verdict")
    for workload, metrics in data["samples"].items():
        for name, values in metrics.items():
            if len(values) < 2:
                continue
            row = summary(values)
            bound = BOUNDS[name]["bound"]
            verdict = ("steady" if row["spread"] < bound / 3
                       else "within bound" if row["spread"] <= bound else "TOO WIDE")
            print(f"{workload:<12} {name:<18} {row['n']:>3} {row['median']:>10.4g} "
                  f"{row['q1']:>10.4g} {row['q3']:>10.4g} {row['spread']:>7.3f} {bound:>6.2f}  "
                  f"{verdict}")
    for failure in data["failures"]:
        print(f"FAILED: {failure}")


def compare(first: Dict[str, Any], second: Dict[str, Any]) -> bool:
    agree = not first["failures"] and not second["failures"]
    for workload, metrics in first["samples"].items():
        for name, values in metrics.items():
            other = second["samples"].get(workload, {}).get(name, [])
            if len(values) < 2 or len(other) < 2:
                print(f"{workload} {name}: too few samples")
                agree = False
                continue
            bound = BOUNDS[name]["bound"]
            a, b = summary(values), summary(other)
            change = (b["median"] - a["median"]) / a["median"]
            problems = [f"{label} spread {row['spread']:.3f} > {bound}"
                        for label, row in (("first", a), ("second", b))
                        if row["spread"] > bound]
            gap = max(a["median"], b["median"]) / min(a["median"], b["median"]) - 1
            if gap > bound:
                problems.append(f"larger median exceeds the smaller by {gap:.1%}")
            agree = agree and not problems
            print(f"{workload:<12} {name:<18} {a['median']:>10.4g} -> {b['median']:>10.4g} "
                  f"({change:+.1%})  {'; '.join(problems) or 'agree'}")
    print("\nthe two sets AGREE within the bounds" if agree else "\nthe two sets DISAGREE")
    return agree


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    report = commands.add_parser("report", help="run seeds and print the steadiness table")
    report.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    report.add_argument("--runs", type=int, default=10)
    report.add_argument("--first-seed", type=int, default=1)
    report.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    report.add_argument("--out", type=Path, help="save the samples as JSON")
    check = commands.add_parser("compare", help="do two saved sets agree within the bounds?")
    check.add_argument("first", type=Path)
    check.add_argument("second", type=Path)
    arguments = parser.parse_args()

    if arguments.command == "compare":
        first, second = (
            json.loads(path.read_text()) for path in (arguments.first, arguments.second)
        )
        return 0 if compare(first, second) else 1
    seeds = list(range(arguments.first_seed, arguments.first_seed + arguments.runs))
    data = collect(arguments.workloads.split(","), seeds, arguments.seconds)
    if arguments.out is not None:
        arguments.out.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    print_report(data)
    return 0 if not data["failures"] else 1


if __name__ == "__main__":
    sys.exit(main())
