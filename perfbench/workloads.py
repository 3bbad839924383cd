"""The three workloads: seeded inputs and one timed iteration of each.

* ``dse-sweep`` — a fresh fast-preset :class:`Session` running Fig. 6a, 6b,
  6c and 6d back to back, no store.
* ``dse-large`` — one cold 800-process ``synthetic-random`` run, no store.
* ``serve-mixed`` — a seeded list of small ``synthetic-random`` jobs pushed
  through a live server (see :mod:`perfbench.serveload`), or replayed
  in-process through ``repro.api.run`` on one shared store for the traced
  layer table.

Every iteration returns its wall clock, the latency of each job (one
scenario run), the engine counters of its reports and the output-check
failures; the caller decides whether the iteration runs traced.
"""

from __future__ import annotations

import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

from perfbench.checks import (
    DSE_LARGE_PARAMS,
    SERVE_POOL,
    OutputChecker,
    serve_key,
)
from perfbench.serveload import Job

WORKLOADS = ("dse-sweep", "dse-large", "serve-mixed")
SWEEP_SCENARIOS = ("fig6a", "fig6b", "fig6c", "fig6d")

#: Additive engine counters summed over the reports of one iteration.
_CACHE_COUNTERS = (
    "hits",
    "misses",
    "search_evaluations",
    "points_computed",
    "disk_hits",
    "disk_entries_loaded",
    "batch_rows",
    "batch_cold_rows",
)

#: Fresh-interpreter set-up probe: import the API and open a session.
SETUP_PROBE = """
import time
started = time.perf_counter()
import repro.api
with repro.api.Session(repro.api.RunConfig(preset="fast")) as session:
    session.config.resolved_preset()
print(time.perf_counter() - started)
"""


@dataclass
class Iteration:
    """One timed pass over a workload's inputs."""

    run_s: float
    latencies: List[float] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    cache: Dict[str, float] = field(default_factory=dict)
    store_bytes: int = 0

    @property
    def jobs(self) -> int:
        return len(self.latencies)

    def scale(self, factor: float) -> None:
        """Multiply every time of the iteration by ``factor`` (see :class:`SpeedGauge`)."""
        self.run_s *= factor
        self.latencies = [latency * factor for latency in self.latencies]


#: The reference loop's time on this benchmark's reference host; the gauge
#: scales every end-to-end time to a host that runs the loop this fast.
REFERENCE_LOOP_S = 0.060


def reference_loop_s() -> float:
    """Seconds a fixed pure-Python integer loop takes now."""
    started = time.perf_counter()
    total = 0
    for value in range(600_000):
        total += value * value % 7
    return time.perf_counter() - started


class SpeedGauge:
    """Tracks how fast the host runs Python, to take its drift out of timings.

    On a shared host, other tenants slow every process for seconds to
    minutes at a time.  A sample is a few timings of
    :func:`reference_loop_s`, code that never changes with the repository;
    the gauge takes one when it is made and one in each :meth:`after`,
    which the caller invokes right after each piece of timed work.  The
    piece's factor is :data:`REFERENCE_LOOP_S` over the median of the
    samples just before and just after it: a time multiplied by it reads
    what it would on a host running the loop at the reference speed, while
    a change to the repository's own code moves it as before.  Samples on
    both sides of the piece track the host's speed while it ran far better
    than one factor for the whole run does.
    """

    def __init__(self) -> None:
        self.samples: List[List[float]] = [self._sample()]

    @staticmethod
    def _sample() -> List[float]:
        return [reference_loop_s() for _ in range(3)]

    def after(self) -> float:
        """Sample the host; the factor for the work since the previous sample."""
        self.samples.append(self._sample())
        return REFERENCE_LOOP_S / statistics.median(self.samples[-2] + self.samples[-1])

    def median_loop_s(self) -> float:
        return statistics.median(value for sample in self.samples for value in sample)


def serve_jobs(rng: random.Random) -> List[Job]:
    """One ``serve-mixed`` job list drawn from ``rng``.

    Every job of :data:`SERVE_POOL` is submitted twice, in a random order:
    its first run computes cold, and its repeat is served warm from the
    shared store (or joins the first run's single-flight when both are in
    flight together).  The draw picks only the order, so every mix does the
    same work.
    """
    jobs = list(SERVE_POOL) * 2
    rng.shuffle(jobs)
    return jobs


def setup_probe(root: Path) -> float:
    """Seconds a fresh interpreter spends importing ``repro.api`` and opening a session."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    output = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE],
        cwd=root,
        env=env,
        check=True,
        capture_output=True,
        text=True,
        timeout=120,
    ).stdout
    return float(output.strip().splitlines()[-1])


def _add_cache(total: Dict[str, float], cache: Dict[str, float]) -> None:
    for key in _CACHE_COUNTERS:
        total[key] = total.get(key, 0.0) + float(cache.get(key, 0.0))


def dse_sweep(checker: OutputChecker) -> Iteration:
    from repro.api import RunConfig, Session

    results = {}
    latencies = []
    started = time.perf_counter()
    with Session(RunConfig(preset="fast")) as session:
        for scenario in SWEEP_SCENARIOS:
            began = time.perf_counter()
            report = session.run(scenario)
            latencies.append(time.perf_counter() - began)
            results[scenario] = report.results
    iteration = Iteration(time.perf_counter() - started, latencies)
    # The session's report counters are cumulative over its scenarios.
    _add_cache(iteration.cache, report.cache)
    for scenario, payload in results.items():
        failure = checker.mismatch(scenario, payload)
        if failure:
            iteration.failures.append(failure)
    return iteration


def dse_large(checker: OutputChecker) -> Iteration:
    from repro.api import RunConfig, run

    started = time.perf_counter()
    report = run("synthetic-random", RunConfig(preset="fast", scenario_params=DSE_LARGE_PARAMS))
    elapsed = time.perf_counter() - started
    iteration = Iteration(elapsed, [elapsed])
    _add_cache(iteration.cache, report.cache)
    failure = checker.mismatch("dse-large", report.results)
    if failure:
        iteration.failures.append(failure)
    return iteration


def serve_replay(checker: OutputChecker, jobs: List[Job], store_dir: Path) -> Iteration:
    """The ``serve-mixed`` job list run in-process on one shared store."""
    from repro.api import RunConfig, run
    from repro.engine.store import DesignPointStore

    latencies = []
    reports = []
    started = time.perf_counter()
    for n_processes, seed in jobs:
        config = RunConfig(
            preset="fast",
            cache_dir=store_dir,
            scenario_params={"n_processes": n_processes, "seed": seed},
        )
        began = time.perf_counter()
        reports.append(run("synthetic-random", config))
        latencies.append(time.perf_counter() - began)
    iteration = Iteration(time.perf_counter() - started, latencies)
    for job, report in zip(jobs, reports):
        _add_cache(iteration.cache, report.cache)
        failure = checker.mismatch(serve_key(*job), report.results)
        if failure:
            iteration.failures.append(failure)
    iteration.store_bytes = DesignPointStore(store_dir).directory_stats()["bytes"]
    return iteration
