#!/usr/bin/env python
"""Benchmark smoke run: the ``fig6a`` scenario, per kernel backend.

Every sweep is executed through the ``repro.api`` session layer — one
:class:`RunReport` per (SFP kernel × scheduler kernel × store) combination —
so this script is also an end-to-end exercise of the declarative RunConfig
path.  Acceptance payloads must agree bit for bit across backends of both
families (they are required to be bit-identical — a disagreement fails the
run).  A kernel microbenchmark times the raw SFP primitives, and a
cold-vs-warm pass against a throwaway persistent design-point store records
what a second run of the same sweep saves.

Writes a JSON timing artifact used by CI for trajectory tracking, and
appends one line per run to a JSONL history file (git sha, kernel pairs,
wall clocks).  The history is the regression gate: a pair that runs more
than ``--max-regression`` slower than the previous comparable entry (same
benchmark, same machine/python, same local-vs-CI source) fails the run.  Run from the repository root:

    PYTHONPATH=src python scripts/bench_engine.py --output BENCH_engine.json
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import subprocess
import tempfile
import time
from pathlib import Path
from typing import List, Optional

from repro import api
from repro.kernels import (
    active_sched_kernel,
    get_kernel,
    kernel_names,
    sched_kernel_names,
)

#: Representative node workloads for the kernel microbenchmark: (per-process
#: failure probabilities, re-execution budget).
MICRO_CASES = (
    ((1.2e-5, 1.3e-5, 1.4e-5), 2),
    ((3.1e-7, 2.9e-7, 8.8e-8, 4.0e-7, 1.1e-7), 4),
    ((2.0e-9,) * 10, 6),
)
MICRO_ROUNDS = 2000


def _run_sweep(
    preset: str,
    sfp_kernel: str,
    store_dir=None,
    sched_kernel=None,
) -> dict:
    """One ``fig6a`` scenario run through the API; returns a timing payload.

    The RunConfig pins the kernel selection for the run's scope only — no
    process-global state to set and restore.
    """
    config = api.RunConfig(
        preset=preset,
        sfp_kernel=sfp_kernel,
        sched_kernel=sched_kernel,
        cache_dir=store_dir,
    )
    with api.Session(config) as session:
        # Build the benchmark suite before the timed runner: generation is
        # identical across kernels and would otherwise dilute the per-kernel
        # speedups (the report's wall clock then measures the sweep only,
        # matching the pre-API benchmark trajectory).
        session.experiment()
        report = session.run("fig6a")
    return {
        "wall_clock_seconds": round(report.timings["wall_clock_seconds"], 3),
        "cache": report.cache,
        "acceptance": report.results["acceptance"],
        "kernels": report.kernels,
    }


#: Scaling curve of the synthetic-random family on the auto-selected kernel
#: pair: a single size hides how the DSE loop's cost grows with problem
#: size.  Each size is its own gated history pair key
#: (``synthetic-random-n<N>:array+flat`` under the default selection).
SYNTHETIC_RANDOM_SCALE = (50, 200, 800)
#: Sizes also run on the reference pair for the bit-identity gate; the
#: largest point is timing-only (the reference pair there roughly doubles
#: the whole benchmark run for a check two smaller sizes already provide).
SYNTHETIC_RANDOM_GATED = (50, 200)
SYNTHETIC_RANDOM_SEED = 7


def _run_synthetic_random(
    n_processes: int,
    sfp_kernel: str,
    sched_kernel: Optional[str] = None,
    store_dir=None,
) -> dict:
    """One ``synthetic-random`` family run (fast preset, fixed seed)."""
    config = api.RunConfig(
        sfp_kernel=sfp_kernel,
        sched_kernel=sched_kernel,
        cache_dir=store_dir,
        scenario_params={
            "n_processes": n_processes,
            "seed": SYNTHETIC_RANDOM_SEED,
        },
    )
    report = api.run("synthetic-random", config)
    return {
        "wall_clock_seconds": round(report.timings["wall_clock_seconds"], 3),
        "cache": report.cache,
        "strategies": report.results["strategies"],
        "kernels": report.kernels,
    }


def _microbench(kernel_name: str) -> dict:
    """Raw primitive throughput (µs/op) outside the engine's memo tables."""
    kernel = get_kernel(kernel_name)
    start = time.perf_counter()
    for _ in range(MICRO_ROUNDS):
        for probabilities, budget in MICRO_CASES:
            kernel.probability_exceeds(probabilities, budget)
    exceeds_us = (time.perf_counter() - start) / (MICRO_ROUNDS * len(MICRO_CASES)) * 1e6
    exceedances = tuple(
        kernel.probability_exceeds(probabilities, budget)
        for probabilities, budget in MICRO_CASES
    )
    start = time.perf_counter()
    for _ in range(MICRO_ROUNDS):
        kernel.system_failure(exceedances)
    union_us = (time.perf_counter() - start) / MICRO_ROUNDS * 1e6
    return {
        "probability_exceeds_us": round(exceeds_us, 2),
        "system_failure_us": round(union_us, 2),
    }


def _git_sha() -> str:
    """Short commit hash of the working tree, or ``unknown`` outside git."""
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return completed.stdout.strip() or "unknown"


def _pair_entry(run: dict) -> dict:
    """The per-pair slice of one sweep run that the history series tracks."""
    return {"wall_clock_seconds": run["wall_clock_seconds"]}


def _append_history(
    path: Path, record: dict, max_regression: Optional[float]
) -> List[str]:
    """Append ``record`` to the JSONL series; gate against the previous entry.

    Only entries from the same benchmark on the same machine/python and the
    same source (local vs CI) are comparable — the first entry of a new
    environment records a baseline and gates nothing.
    """
    previous = None
    if path.exists():
        for line in path.read_text(encoding="utf-8").splitlines():
            line = line.strip()
            if not line:
                continue
            entry = json.loads(line)
            if all(
                entry.get(key) == record[key]
                for key in ("benchmark", "machine", "python", "source")
            ):
                previous = entry
    errors = []
    if previous is not None and max_regression is not None:
        for pair, timing in record["pairs"].items():
            before = previous.get("pairs", {}).get(pair, {})
            before_seconds = before.get("wall_clock_seconds")
            seconds = timing["wall_clock_seconds"]
            if before_seconds and seconds > before_seconds * (1.0 + max_regression):
                errors.append(
                    f"timing regression: pair {pair} ran {seconds}s vs "
                    f"{before_seconds}s in the previous entry "
                    f"({previous.get('git_sha')}), beyond the "
                    f"{max_regression:.0%} budget"
                )
    with path.open("a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")
    return errors


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--output",
        type=Path,
        default=Path("BENCH_engine.json"),
        help="path of the JSON timing artifact",
    )
    parser.add_argument(
        "--preset",
        choices=["smoke", "fast"],
        default="fast",
        help="experiment preset to benchmark",
    )
    parser.add_argument(
        "--history",
        type=Path,
        default=Path("BENCH_history.jsonl"),
        help="JSONL timing series to append to (one record per run)",
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.25,
        help=(
            "fail when a kernel pair runs this fraction slower than the "
            "previous comparable history entry; negative disables the gate"
        ),
    )
    arguments = parser.parse_args()

    names = kernel_names(available_only=True)
    # The SFP-kernel loop never overrides the scheduler selection, so the
    # headline sweeps run on the ambient choice (REPRO_SCHED_KERNEL or auto)
    # — record that, not the auto-priority winner.
    headline_sched = active_sched_kernel().name
    kernels = {}
    for name in names:
        run = _run_sweep(arguments.preset, name)
        run["micro"] = _microbench(name)
        kernels[name] = run

    errors = []
    reference_run = kernels.get("reference")
    for name, run in kernels.items():
        if reference_run is not None and run["acceptance"] != reference_run["acceptance"]:
            errors.append(f"kernel {name} acceptance differs from reference")
        if run["cache"]["hits"] == 0:
            errors.append(f"kernel {name} reported zero cache hits")
        if reference_run is not None and reference_run["wall_clock_seconds"]:
            run["speedup_vs_reference"] = round(
                reference_run["wall_clock_seconds"] / run["wall_clock_seconds"], 3
            )

    # Scheduler kernel backends: the same sweep per backend, on the fastest
    # SFP kernel.  Any divergence from the reference scheduler's acceptance
    # output is a bit-identity violation and fails the run.
    sched_names = sched_kernel_names(available_only=True)
    sched_kernels = {}
    for name in sched_names:
        sched_kernels[name] = _run_sweep(arguments.preset, names[0], sched_kernel=name)
    sched_reference = sched_kernels.get("reference")
    for name, run in sched_kernels.items():
        if (
            sched_reference is not None
            and run["acceptance"] != sched_reference["acceptance"]
        ):
            errors.append(
                f"scheduler kernel {name} schedule output diverged from reference"
            )
        if sched_reference is not None and sched_reference["wall_clock_seconds"]:
            run["speedup_vs_reference"] = round(
                sched_reference["wall_clock_seconds"] / run["wall_clock_seconds"], 3
            )

    # Parameterized synthetic-random family: a cold scaling curve on the
    # auto-selected pair — one run per SYNTHETIC_RANDOM_SCALE size against a
    # throwaway store (everything is computed, so the history tracks each
    # size's end-to-end cost).  The smaller sizes are also gated
    # bit-for-bit against the reference pair; the largest point is
    # timing-only (see SYNTHETIC_RANDOM_GATED).
    synthetic_random = {}
    for n_processes in SYNTHETIC_RANDOM_SCALE:
        with tempfile.TemporaryDirectory(prefix="repro-bench-random-") as store_dir:
            run = _run_synthetic_random(
                n_processes, names[0], store_dir=Path(store_dir)
            )
        synthetic_random[f"n{n_processes}"] = run
        if n_processes in SYNTHETIC_RANDOM_GATED:
            random_reference = _run_synthetic_random(
                n_processes, "reference", sched_kernel="reference"
            )
            if run["strategies"] != random_reference["strategies"]:
                errors.append(
                    f"synthetic-random n={n_processes} {names[0]}+"
                    f"{headline_sched} design output diverged from reference"
                )
        if run["cache"]["points_computed"] == 0:
            errors.append(
                f"cold synthetic-random n={n_processes} run computed no "
                "design points"
            )

    # Persistent-store cold/warm pass on the auto-selected (fastest) kernel.
    with tempfile.TemporaryDirectory(prefix="repro-bench-store-") as store_dir:
        cold = _run_sweep(arguments.preset, names[0], store_dir=Path(store_dir))
        warm = _run_sweep(arguments.preset, names[0], store_dir=Path(store_dir))
    if warm["acceptance"] != kernels[names[0]]["acceptance"]:
        errors.append("warm persistent-store run changed acceptance output")
    if warm["cache"]["disk_hits"] == 0:
        errors.append("warm persistent-store run reported zero disk hits")
    store_report = {
        "cold_wall_clock_seconds": cold["wall_clock_seconds"],
        "warm_wall_clock_seconds": warm["wall_clock_seconds"],
        "warm_disk_hits": warm["cache"]["disk_hits"],
        "warm_entries_loaded": warm["cache"]["disk_entries_loaded"],
        "warm_points_computed": warm["cache"]["points_computed"],
    }

    fastest = kernels[names[0]]
    payload = {
        "benchmark": f"fig6a_hpd_sweep_{arguments.preset}",
        # Backwards-compatible top-level fields: the auto-selected kernel.
        "kernel": names[0],
        "wall_clock_seconds": fastest["wall_clock_seconds"],
        "cache": fastest["cache"],
        "acceptance": fastest["acceptance"],
        "sched_kernel": headline_sched,
        "kernels": kernels,
        "sched_kernels": sched_kernels,
        "persistent_store": store_report,
        "synthetic_random": synthetic_random,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }
    arguments.output.write_text(json.dumps(payload, indent=2), encoding="utf-8")

    pairs = {
        f"{names[0]}+{headline_sched}": dict(
            _pair_entry(fastest),
            cold_store_wall_clock_seconds=store_report["cold_wall_clock_seconds"],
        )
    }
    for size_key, run in synthetic_random.items():
        pairs[f"synthetic-random-{size_key}:{names[0]}+{headline_sched}"] = (
            _pair_entry(run)
        )
    history_record = {
        "recorded_at": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "git_sha": _git_sha(),
        "benchmark": payload["benchmark"],
        "python": payload["python"],
        "machine": payload["machine"],
        "source": "ci" if os.environ.get("GITHUB_ACTIONS") else "local",
        "pairs": pairs,
    }
    max_regression = (
        arguments.max_regression if arguments.max_regression >= 0 else None
    )
    errors.extend(
        _append_history(arguments.history, history_record, max_regression)
    )

    print(json.dumps(payload, indent=2))
    print(f"\nartifact written to {arguments.output}")
    print(f"history entry appended to {arguments.history}")
    for error in errors:
        print(f"ERROR: {error}")
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
