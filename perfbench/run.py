#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload dse-sweep --seed 1 --seconds 50 --trace 0

``--trace 0`` times untraced iterations for ``--seconds`` seconds and
reports the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` splits
the time between untraced and traced iterations (layer entry points
wrapped by :mod:`perfbench.spans`) and reports the per-layer metrics.
Every end-to-end time is scaled by the host's speed while it was taken,
as gauged by a fixed reference loop timed before and after each timed
piece of work (:class:`perfbench.workloads.SpeedGauge`), so that other
tenants' load on a shared host does not read as a change in the code.
Every iteration's outputs are checked (:mod:`perfbench.checks`).  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 0 only when
every output matched.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

ROOT = Path(__file__).resolve().parents[1]

#: Fewest fresh-interpreter set-up samples per ``dse-*`` run (one follows
#: each iteration), and server starts per ``serve-mixed`` run before its
#: drains (each drain adds one more).
SETUP_SAMPLES = 5
SERVE_SETUP_PROBES = 3

#: Fewest untraced iterations per ``dse-*`` run, and fewest drains per
#: ``serve-mixed`` run: six 18-job drains give the latency p90 ten samples
#: beyond it.
MIN_ITERATIONS = 2
SERVE_MIN_DRAINS = 6

#: Seconds after which a run gives up: it stops its servers and exits 1
#: without a result, well inside the 180 s a run may take.
RUN_DEADLINE_S = 150

#: The layers whose ``.s`` / ``.self_s`` / ``.calls`` the trace reports.
SPAN_LAYERS = (
    "generator",
    "scheduling",
    "kernels.sched",
    "core.design_strategy",
    "core.mapping",
    "core.redundancy",
    "core.reexecution",
    "kernels.sfp",
)
ENGINE_TABLES = ("decisions", "optimizations", "exceedance", "system_failure")

#: ``(metrics, attempted, failures)`` of one run, and one traced iteration
#: with its layer table and per-memo-table hit rates.
Measured = Tuple[Dict[str, float], int, List[str]]
Traced = Tuple[Any, Dict[str, Dict[str, float]], Dict[str, float]]


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    arguments = parser.parse_args(argv)

    required = (ROOT / "src" / "repro", ROOT / "tests" / "golden", ROOT / "BENCHMARK.json")
    missing = [str(path.relative_to(ROOT)) for path in required if not path.exists()]
    if missing:
        print(f"error: not a repository checkout, missing {missing}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.checks import OutputChecker
    from perfbench.serveload import stop_descendants
    from perfbench.workloads import WORKLOADS

    if arguments.workload not in WORKLOADS:
        parser.error(f"unknown workload {arguments.workload!r}; expected one of {WORKLOADS}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    checker = OutputChecker()
    # A termination signal or the deadline kills every process the run
    # started, then unwinds the run like an error.
    for signum in (signal.SIGTERM, signal.SIGHUP, signal.SIGALRM):
        signal.signal(signum, _abort)
    signal.alarm(RUN_DEADLINE_S)
    work = ROOT / ".perfbench-work" / f"{arguments.workload}-{arguments.seed}-{time.time_ns()}"
    try:
        if arguments.workload == "serve-mixed":
            metrics, attempted, failures = measure_serve(arguments, checker, work)
        else:
            metrics, attempted, failures = measure_dse(arguments, checker)
    finally:
        stop_descendants()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run is using it, or it was never created
            pass

    wanted = spec["per_layer"] if arguments.trace else spec["end_to_end"]
    for failure in failures:
        print(f"FAILED: {failure}")
    print(f"# {arguments.workload} seed={arguments.seed} trace={arguments.trace} "
          f"attempted={attempted} failed={len(failures)}")
    for entry in wanted:
        print(f"{entry['name']:<34} {metrics.get(entry['name'], 0.0):>14.6g} {entry['unit']}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            entry["name"]: {"value": metrics.get(entry["name"], 0.0), "unit": entry["unit"]}
            for entry in wanted
        },
    }
    print(json.dumps(result))
    return 0 if not failures else 1


def _abort(signum: int, frame: Any) -> None:
    """Kill every process the run started, then unwind the run once.

    The handler can run anywhere, even while a server starts or stops, so
    it leaves no process to the unwinding; a second signal is ignored.
    """
    from perfbench.serveload import stop_descendants

    for ignored in (signal.SIGTERM, signal.SIGHUP, signal.SIGALRM):
        signal.signal(ignored, signal.SIG_IGN)
    stop_descendants()
    raise SystemExit(f"error: run aborted by {signal.Signals(signum).name}")


# ----------------------------------------------------------------------
# dse-sweep / dse-large
# ----------------------------------------------------------------------
def measure_dse(arguments: argparse.Namespace, checker: Any) -> Measured:
    from perfbench import workloads

    iterate = {"dse-sweep": workloads.dse_sweep, "dse-large": workloads.dse_large}[
        arguments.workload
    ]
    gauge = workloads.SpeedGauge()
    setups: List[float] = []

    def iterate_then_probe() -> Any:
        # Set-up probes run between the timed iterations, so they spread
        # over the whole run instead of one burst at its end.
        iteration = iterate(checker)
        if not arguments.trace:
            iteration.scale(gauge.after())
            setups.append(workloads.setup_probe(ROOT) * gauge.after())
        return iteration

    budget = arguments.seconds / 2 if arguments.trace else arguments.seconds
    untraced = repeat(iterate_then_probe, budget, MIN_ITERATIONS)
    failures = [failure for iteration in untraced for failure in iteration.failures]
    attempted = sum(iteration.jobs for iteration in untraced)
    if not arguments.trace:
        while len(setups) < SETUP_SAMPLES:
            setups.append(workloads.setup_probe(ROOT) * gauge.after())
        metrics = end_to_end(untraced, setups, gauge)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return metrics, attempted, failures
    traced = repeat(lambda: traced_iteration(lambda: iterate(checker)), budget, 1)
    failures += [failure for iteration, _, _ in traced for failure in iteration.failures]
    attempted += sum(iteration.jobs for iteration, _, _ in traced)
    metrics = layer_metrics(traced)
    metrics["trace.overhead_ratio"] = statistics.median(
        iteration.run_s for iteration, _, _ in traced
    ) / statistics.median(iteration.run_s for iteration in untraced)
    return metrics, attempted, failures


def repeat(iterate: Callable[[], Any], budget: float, minimum: int) -> List[Any]:
    """Run ``iterate`` until ``budget`` seconds passed and ``minimum`` runs exist."""
    results: List[Any] = []
    started = time.perf_counter()
    while len(results) < minimum or time.perf_counter() - started < budget:
        gc.collect()
        results.append(iterate())
    return results


def traced_iteration(iterate: Callable[[], Any]) -> Traced:
    """One iteration with every layer entry point wrapped, then unwrapped."""
    from perfbench import spans

    tracer = spans.Tracer()
    patches = spans.install(tracer)
    try:
        iteration = iterate()
    finally:
        patches.restore()
    table = spans.layer_table(tracer.spans)
    totals: Dict[str, List[int]] = {}
    for engine in tracer.engines:
        for name, stats in engine.stats_by_cache().items():
            counts = totals.setdefault(name, [0, 0])
            counts[0] += stats["hits"]
            counts[1] += stats["misses"]
    hit_rates = {name: hits / (hits + misses) if hits + misses else 0.0
                 for name, (hits, misses) in totals.items()}
    return iteration, table, hit_rates


def end_to_end(iterations: List[Any], setups: List[float], gauge: Any) -> Dict[str, float]:
    """The time metrics of untraced iterations and set-up probes, already scaled."""
    latencies = [latency for iteration in iterations for latency in iteration.latencies]
    p90 = smoothed_quantile(latencies, 0.9)
    print(f"# {len(iterations)} iterations, {len(latencies)} job latencies, "
          f"{sum(latency > p90 for latency in latencies)} beyond p90")
    print(f"# reference loop median {gauge.median_loop_s():.4f} s over "
          f"{3 * len(gauge.samples)} timings")
    print("# scaled iteration times: " + " ".join(f"{it.run_s:.3f}" for it in iterations))
    return {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(iteration.run_s for iteration in iterations),
        "jobs_per_s": statistics.median(
            iteration.jobs / iteration.run_s for iteration in iterations
        ),
        "job_latency_p50_s": smoothed_quantile(latencies, 0.5),
        "job_latency_p90_s": p90,
    }


def smoothed_quantile(values: List[float], quantile: float) -> float:
    """Mean of the values ranked within 0.05 of ``quantile``.

    Job latencies fall into clusters (job sizes, and the server's 50 ms
    event-spool poll), and a single order statistic jumps from one cluster
    to the next between runs; the mean of the ranks around it does not.
    """
    ordered = sorted(values)
    last = len(ordered) - 1
    low = round((quantile - 0.05) * last)
    high = round((quantile + 0.05) * last)
    return statistics.fmean(ordered[low:high + 1])


def layer_metrics(traced: List[Traced]) -> Dict[str, float]:
    """Median over traced iterations of every per-layer span and engine metric."""
    samples: Dict[str, List[float]] = {}
    for iteration, table, hit_rates in traced:
        values: Dict[str, float] = {}
        for layer in SPAN_LAYERS:
            row = table.get(layer, {"s": 0.0, "self_s": 0.0, "calls": 0})
            for key in ("s", "self_s", "calls"):
                values[f"{layer}.{key}"] = row[key]
        values["engine.store.warm_s"] = table.get("engine.store.warm", {}).get("s", 0.0)
        values["engine.store.persist_s"] = table.get("engine.store.persist", {}).get("s", 0.0)
        cache = iteration.cache
        lookups = cache["hits"] + cache["misses"]
        values["engine.hit_rate"] = cache["hits"] / lookups if lookups else 0.0
        values["engine.points_computed"] = cache["points_computed"]
        values["engine.search_evaluations"] = cache["search_evaluations"]
        values["engine.batch_fill_rate"] = (
            cache["batch_cold_rows"] / cache["batch_rows"] if cache["batch_rows"] else 0.0
        )
        for name in ENGINE_TABLES:
            values[f"engine.{name}.hit_rate"] = hit_rates.get(name, 0.0)
        values["engine.store.entries_loaded"] = cache["disk_entries_loaded"]
        values["engine.store.disk_hits"] = cache["disk_hits"]
        values["engine.store.bytes"] = iteration.store_bytes
        for name, value in values.items():
            samples.setdefault(name, []).append(float(value))
    return {name: statistics.median(values) for name, values in samples.items()}


# ----------------------------------------------------------------------
# serve-mixed
# ----------------------------------------------------------------------
def measure_serve(arguments: argparse.Namespace, checker: Any, work: Path) -> Measured:
    from perfbench import workloads
    from perfbench.checks import serve_key
    from perfbench.serveload import ServerProcess, drain

    rng = random.Random(arguments.seed)
    gauge = workloads.SpeedGauge()
    setups = []
    for probe in range(0 if arguments.trace else SERVE_SETUP_PROBES):
        with ServerProcess(ROOT, work / f"probe-{probe}") as server:
            setup_s = server.start()
        setups.append(setup_s * gauge.after())

    def check(job: Any, results: Any) -> Any:
        return checker.mismatch(serve_key(*job), results)

    def one_drain() -> Tuple[Any, List[Any], float]:
        jobs = workloads.serve_jobs(rng)
        mixes.append(jobs)
        with ServerProcess(ROOT, work / f"drain-{len(mixes)}") as server:
            setup_s = server.start()
            server.start_pool()
            outcomes, elapsed = drain(server.port, jobs, check)
            rss = server.peak_rss_mb()
        iteration = workloads.Iteration(
            elapsed,
            [outcome.latency_s for outcome in outcomes if outcome.latency_s is not None],
            [f"{outcome.job}: {outcome.failed}" for outcome in outcomes if outcome.failed],
        )
        if not arguments.trace:
            factor = gauge.after()
            iteration.scale(factor)
            setups.append(setup_s * factor)
        return iteration, outcomes, rss

    # Each drain gets its own order and repeats from the run's seed, so the
    # pooled latencies do not hang on one arrival order.
    mixes: List[List[Any]] = []
    drains: List[Tuple[Any, List[Any], float]] = []
    budget = 0.0 if arguments.trace else arguments.seconds
    started = time.perf_counter()
    while len(drains) < SERVE_MIN_DRAINS or time.perf_counter() - started < budget:
        gc.collect()
        drains.append(one_drain())
    failures = [failure for iteration, _, _ in drains for failure in iteration.failures]
    attempted = sum(len(outcomes) for _, outcomes, _ in drains)
    if not arguments.trace:
        metrics = end_to_end([iteration for iteration, _, _ in drains], setups, gauge)
        metrics["peak_rss_mb"] = statistics.median(rss for _, _, rss in drains)
        return metrics, attempted, failures

    replayed = mixes[0]
    untraced = workloads.serve_replay(checker, replayed, work / "replay-untraced")
    traced = traced_iteration(
        lambda: workloads.serve_replay(checker, replayed, work / "replay-traced")
    )
    for iteration in (untraced, traced[0]):
        failures += iteration.failures
        attempted += iteration.jobs
    metrics = layer_metrics([traced])
    metrics["trace.overhead_ratio"] = traced[0].run_s / untraced.run_s
    outcomes = [outcome for _, drained, _ in drains for outcome in drained]
    for key in ("submit_s", "queue_wait_s", "exec_s", "delivery_s"):
        values = [value for value in (getattr(outcome, key) for outcome in outcomes)
                  if value is not None]
        metrics[f"serve.{key}"] = statistics.median(values) if values else 0.0
    metrics["serve.rejected"] = statistics.median(
        sum(outcome.rejected for outcome in drained) for _, drained, _ in drains
    )
    metrics["serve.warm_jobs"] = statistics.median(
        sum(outcome.warm for outcome in drained) for _, drained, _ in drains
    )
    return metrics, attempted, failures


if __name__ == "__main__":
    sys.exit(main())
