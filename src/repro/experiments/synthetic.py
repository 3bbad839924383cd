"""Synthetic design-space-exploration experiments (Fig. 6 of the paper).

The paper generates 150 synthetic applications (20 and 40 processes), sweeps
the soft error rate (SER ∈ {1e-10, 1e-11, 1e-12}), the hardening performance
degradation (HPD ∈ {5, 25, 50, 100} %) and the maximum architectural cost
(ArC ∈ {15, 20, 25}), and reports, for the three strategies MIN / MAX / OPT,
the percentage of applications for which an *accepted* implementation was
found (reliable + schedulable + within the cost cap).

Running the full 150-application sweep takes hours of CPU (the paper reports
3-60 minutes per application on a 2.8 GHz Pentium 4); this module therefore
exposes *presets*: ``ExperimentPreset.paper()`` mirrors the published setup,
``ExperimentPreset.fast()`` is a scaled-down configuration (fewer, smaller
applications and reduced tabu-search effort) used by the test suite and
the ``--preset fast`` runs, so every figure regenerates in seconds on a
laptop.  The qualitative
shape — MIN flat over HPD, MAX degrading with HPD and cost pressure, OPT
dominating both, OPT ≈ MIN at low SER and OPT ≫ MIN at high SER — is
preserved by the scaled-down preset and asserted in the integration tests.
"""

from __future__ import annotations

import weakref
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.core.design_strategy import DesignStrategy
from repro.core.evaluation import DesignResult
from repro.core.fault_model import SER_HIGH, SER_LOW, SER_MEDIUM
from repro.core.mapping import MappingAlgorithm
from repro.core.redundancy import POLICIES
from repro.engine import DEFAULT_MAX_BYTES, DesignPointStore, EvaluationEngine
from repro.experiments.results import format_table
from repro.generator.benchmark import (
    BenchmarkConfig,
    SyntheticBenchmark,
    build_platform,
    generate_benchmark_suite,
)

#: The three strategies compared throughout Section 7, named by their policy.
STRATEGIES = POLICIES

#: HPD values (in percent) used by Fig. 6a and Fig. 6b.
PAPER_HPD_VALUES = (5.0, 25.0, 50.0, 100.0)

#: Maximum architectural costs used by Fig. 6b.
PAPER_ARC_VALUES = (15.0, 20.0, 25.0)

#: Soft error rates of the three technologies of Fig. 6c / 6d.
PAPER_SER_VALUES = (SER_LOW, SER_MEDIUM, SER_HIGH)

#: Additive engine counters of a cache report.  ``search_evaluations``
#: counts design points *examined* by the tabu searches; ``points_computed``
#: counts points actually evaluated — decision-cache misses that ran the
#: re-execution optimizer and the scheduler.  The derived ``hit_rate`` is
#: recomputed from the summed hits and misses, never summed itself.
CACHE_COUNTERS = (
    "hits",
    "misses",
    "search_evaluations",
    "points_computed",
    "disk_hits",
    "disk_entries_loaded",
)


def sum_cache_counters(parts: Iterable[Mapping[str, float]]) -> Dict[str, float]:
    """Sum the :data:`CACHE_COUNTERS` of ``parts`` and derive ``hit_rate``.

    A counter missing from a part counts as zero, so the empty sum is the
    zeroed report.
    """
    total: Dict[str, float] = {key: 0 for key in CACHE_COUNTERS}
    for part in parts:
        for key in CACHE_COUNTERS:
            total[key] += part.get(key, 0)
    lookups = total["hits"] + total["misses"]
    total["hit_rate"] = total["hits"] / lookups if lookups else 0.0
    return total


@dataclass(frozen=True)
class ExperimentPreset:
    """Size/effort knobs of the synthetic experiment harness."""

    n_applications: int
    process_counts: Tuple[int, ...]
    n_node_types: int
    mapping_iterations: int
    mapping_stop_after: int
    mapping_candidates: int
    base_seed: int = 1

    @classmethod
    def paper(cls) -> "ExperimentPreset":
        """The published setup: 150 applications of 20 and 40 processes."""
        return cls(
            n_applications=150,
            process_counts=(20, 40),
            n_node_types=4,
            mapping_iterations=12,
            mapping_stop_after=4,
            mapping_candidates=4,
        )

    @classmethod
    def fast(cls) -> "ExperimentPreset":
        """Laptop-scale preset used by the benchmark harnesses."""
        return cls(
            n_applications=6,
            process_counts=(16, 24),
            n_node_types=3,
            mapping_iterations=3,
            mapping_stop_after=2,
            mapping_candidates=2,
        )

    @classmethod
    def smoke(cls) -> "ExperimentPreset":
        """Minimal preset for unit/integration tests."""
        return cls(
            n_applications=2,
            process_counts=(10,),
            n_node_types=3,
            mapping_iterations=2,
            mapping_stop_after=1,
            mapping_candidates=2,
        )

    def benchmark_config(self) -> BenchmarkConfig:
        return BenchmarkConfig(n_node_types=self.n_node_types)

    def mapping_algorithm(self, policy: str) -> MappingAlgorithm:
        """The preset's tabu-search tuning for one of :data:`STRATEGIES`."""
        return MappingAlgorithm(
            policy=policy,
            max_iterations=self.mapping_iterations,
            stop_after_no_improvement=self.mapping_stop_after,
            max_candidates=self.mapping_candidates,
        )


@dataclass
class SettingResult:
    """All strategy results for one (SER, HPD) setting over a benchmark suite."""

    ser: float
    hpd: float
    results: Dict[str, List[DesignResult]] = field(default_factory=dict)
    #: Running engine counters (:data:`CACHE_COUNTERS` and ``hit_rate``)
    #: over the applications evaluated so far.
    counters: Dict[str, float] = field(default_factory=lambda: sum_cache_counters(()))

    def acceptance_percent(self, max_cost: Optional[float]) -> Dict[str, float]:
        """Percentage of applications accepted per strategy under ``max_cost``."""
        output: Dict[str, float] = {}
        for strategy, results in self.results.items():
            if not results:
                output[strategy] = 0.0
                continue
            accepted = sum(1 for result in results if result.is_accepted(max_cost))
            output[strategy] = 100.0 * accepted / len(results)
        return output

    def average_cost(self, strategy: str) -> float:
        """Mean architecture cost of the feasible designs of one strategy."""
        costs = [
            result.cost for result in self.results.get(strategy, []) if result.feasible
        ]
        if not costs:
            return float("inf")
        return sum(costs) / len(costs)


def _evaluate_benchmark_setting(
    benchmark: SyntheticBenchmark,
    ser: float,
    hpd: float,
    preset: ExperimentPreset,
    store_dir: Optional[Path] = None,
    store_max_bytes: int = DEFAULT_MAX_BYTES,
) -> Tuple[Dict[str, DesignResult], Dict[str, int]]:
    """Run MIN, MAX and OPT for one application at one setting.

    Module-level (not a method) so the parallel sweep can ship it to worker
    processes.  All strategies share one :class:`EvaluationEngine` bound to
    the benchmark's (application, profile): design points evaluated by MIN
    (all-minimum hardening, which OPT's Phase 1 always evaluates first) or
    MAX are free for OPT and vice versa.  The returned counters
    (:data:`CACHE_COUNTERS`) are that engine's, plus the search effort of
    the three explorations.

    When ``store_dir`` is given, the engine is warm-started from the
    persistent design-point store before the strategies run and its memo
    tables are merged back afterwards; the counters then report how many
    entries were preloaded and how many lookups they served.  Every worker
    process opens its own store handle (cheap — it is just a directory).

    Whenever a store is attached, the run holds the store's
    :meth:`~repro.engine.store.DesignPointStore.single_flight` guard, which
    serializes *identical* contexts across concurrent processes (the serve
    job queue's shared warm store): the first process to reach a context
    computes it, everyone else blocks on the store's lock file and then
    warm-loads the winner's entries instead of recomputing them.  Distinct
    benchmarks/settings hash to distinct files, so a parallel sweep never
    waits on itself.  Results are bit-identical either way; the guard only
    removes duplicated work.
    """
    node_types, profile = build_platform(
        benchmark,
        ser_per_cycle=ser,
        hardening_performance_degradation=hpd,
    )
    engine = EvaluationEngine(benchmark.application, profile)
    store: Optional[DesignPointStore] = None
    loaded = 0
    if store_dir is not None:
        store = DesignPointStore(store_dir, max_bytes=store_max_bytes)
    guard = store.single_flight(engine) if store is not None else nullcontext(True)
    with guard:
        # Warming happens inside the guard: a single-flight follower warms
        # *after* the leader's persist, so the leader's design points are
        # all served from disk and the follower computes none of them.
        if store is not None:
            loaded = store.warm(engine)
        results = {
            policy: DesignStrategy(node_types, preset.mapping_algorithm(policy)).explore(engine)
            for policy in STRATEGIES
        }
        if store is not None:
            store.persist(engine)
    stats = engine.stats
    return results, {
        "hits": stats.hits,
        "misses": stats.misses,
        "search_evaluations": sum(result.evaluations for result in results.values()),
        "points_computed": engine.evaluations,
        "disk_hits": engine.disk_hits,
        "disk_entries_loaded": loaded,
    }


#: Per-worker-process state installed by :func:`_init_worker`.  Worker
#: processes are single-threaded executor children, so a plain module dict
#: needs no locking.
_WORKER_STATE: Dict[str, object] = {}


def _init_worker(
    benchmarks: Sequence[SyntheticBenchmark],
    preset: ExperimentPreset,
    store_dir: Optional[Path],
    store_max_bytes: int,
) -> None:
    """Executor initializer: ship the benchmark suite once per worker.

    Submitting ``(benchmark, ser, hpd, preset, …)`` per task re-pickles each
    benchmark (and the shared arguments) for every task; installing the
    whole suite once per worker makes each task a ``(index, ser, hpd)``
    triple of scalars.  A ``REPRO_SANITIZE`` run also gets a worker-side
    sanitizer here.
    """
    from repro.lint.sanitizer import install_from_env

    _WORKER_STATE["benchmarks"] = list(benchmarks)
    _WORKER_STATE["preset"] = preset
    _WORKER_STATE["store_dir"] = store_dir
    _WORKER_STATE["store_max_bytes"] = store_max_bytes
    install_from_env()


def _evaluate_indexed_setting(
    task: Tuple[int, float, float],
) -> Tuple[Dict[str, DesignResult], Dict[str, int]]:
    """Worker-side task: evaluate benchmark ``index`` at one (SER, HPD)."""
    index, ser, hpd = task
    return _evaluate_benchmark_setting(
        _WORKER_STATE["benchmarks"][index],
        ser,
        hpd,
        _WORKER_STATE["preset"],
        _WORKER_STATE["store_dir"],
        _WORKER_STATE["store_max_bytes"],
    )


def _shutdown_pool(executor: ProcessPoolExecutor) -> None:
    """GC-finalizer fallback: release workers without blocking collection."""
    executor.shutdown(wait=False, cancel_futures=True)


class AcceptanceExperiment:
    """Run MIN / MAX / OPT over the preset's generated benchmark suite.

    The expensive part — running the three strategies for a given SER/HPD
    technology setting — is decoupled from the cheap part — counting
    acceptance under different cost caps — exactly because the paper sweeps
    ArC without re-running the optimization.

    Parameters
    ----------
    n_jobs:
        Number of worker processes for the per-application loop.  ``None`` or
        ``1`` runs serially (the default — the memoized engine already makes
        the sweep fast on one core); ``0`` uses one worker per CPU.  Results
        are deterministic and identical regardless of ``n_jobs`` because each
        application is evaluated independently and collected in order.
    store_dir:
        Optional directory of the persistent design-point store
        (:class:`~repro.engine.store.DesignPointStore`).  When given, every
        engine is warm-started from disk and persisted back, so repeating
        the same sweep in a fresh process starts warm, and concurrent
        processes sharing ``store_dir`` compute each context once (see
        :func:`_evaluate_benchmark_setting`).  Results are bit-identical
        with or without a store.
    store_max_bytes:
        Size cap of the store directory (least-recently-used files are
        evicted beyond it).
    progress:
        Optional callback receiving one JSON-native event dict per
        completed benchmark evaluation (``setting_progress`` events with
        running cache counters).  Observability only — it never changes
        results.
    """

    def __init__(
        self,
        preset: Optional[ExperimentPreset] = None,
        n_jobs: Optional[int] = None,
        store_dir: Union[str, Path, None] = None,
        store_max_bytes: int = DEFAULT_MAX_BYTES,
        progress: Optional[Callable[[Dict[str, object]], None]] = None,
    ) -> None:
        self.preset = preset if preset is not None else ExperimentPreset.fast()
        if n_jobs is not None and n_jobs < 0:
            raise ValueError(f"n_jobs must be >= 0, got {n_jobs}")
        self.n_jobs = n_jobs
        self.store_dir = Path(store_dir) if store_dir is not None else None
        self.store_max_bytes = store_max_bytes
        self.progress = progress
        self.benchmarks = generate_benchmark_suite(
            count=self.preset.n_applications,
            base_seed=self.preset.base_seed,
            config=self.preset.benchmark_config(),
            process_counts=self.preset.process_counts,
        )
        self._cache: Dict[Tuple[float, float], SettingResult] = {}
        self._executor: Optional[ProcessPoolExecutor] = None
        self._finalizer: Optional[weakref.finalize] = None

    # ------------------------------------------------------------------
    # worker-pool lifecycle (parallel sweeps only)
    # ------------------------------------------------------------------
    def _pool(self) -> ProcessPoolExecutor:
        """Lazily created worker pool shared by every setting of the sweep.

        One executor per *experiment* (not per setting) means the
        initializer ships the benchmark suite exactly once per worker for
        the whole sweep.  The pool is released by :meth:`close` (the
        experiment doubles as a context manager) or, failing that, by a GC
        finalizer.
        """
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.n_jobs if self.n_jobs else None,
                initializer=_init_worker,
                initargs=(
                    self.benchmarks,
                    self.preset,
                    self.store_dir,
                    self.store_max_bytes,
                ),
            )
            self._finalizer = weakref.finalize(
                self, _shutdown_pool, self._executor
            )
        return self._executor

    def close(self) -> None:
        """Shut the worker pool down (no-op when serial or already closed)."""
        if self._executor is None:
            return
        if self._finalizer is not None:
            self._finalizer.detach()
            self._finalizer = None
        executor, self._executor = self._executor, None
        executor.shutdown()

    def __enter__(self) -> "AcceptanceExperiment":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    # ------------------------------------------------------------------
    def run_setting(self, ser: float, hpd: float) -> SettingResult:
        """Run all strategies for one (SER, HPD) technology setting."""
        key = (ser, hpd)
        if key in self._cache:
            return self._cache[key]
        setting = SettingResult(ser=ser, hpd=hpd, results={name: [] for name in STRATEGIES})
        count = len(self.benchmarks)
        if self.n_jobs is None or self.n_jobs == 1:
            iterator = (
                _evaluate_benchmark_setting(
                    benchmark, ser, hpd, self.preset, self.store_dir, self.store_max_bytes
                )
                for benchmark in self.benchmarks
            )
        else:
            # The pool initializer ships the benchmark suite (and the shared
            # configuration) once per worker process for the whole sweep; the
            # tasks themselves are (index, ser, hpd) scalar triples.
            # ``pool.map`` preserves submission order, so results stay
            # bit-identical to serial.
            iterator = self._pool().map(
                _evaluate_indexed_setting,
                [(index, ser, hpd) for index in range(count)],
            )
        # Results are folded in (and progress emitted) as each benchmark
        # completes; ``pool.map`` preserves submission order, so collection
        # stays bit-identical to serial.
        for completed, (results, counters) in enumerate(iterator, start=1):
            for name in STRATEGIES:
                setting.results[name].append(results[name])
            setting.counters = sum_cache_counters((setting.counters, counters))
            if self.progress is not None:
                self.progress(
                    {
                        **setting.counters,
                        "event": "setting_progress",
                        "ser": ser,
                        "hpd": hpd,
                        "completed": completed,
                        "total": count,
                    }
                )
        self._cache[key] = setting
        return setting

    def cache_report(self) -> Dict[str, float]:
        """Aggregate engine counters over every setting run so far.

        See :data:`CACHE_COUNTERS` for the field semantics.
        """
        return sum_cache_counters(setting.counters for setting in self._cache.values())


# ----------------------------------------------------------------------
# Text rendering of the Fig. 6 scenario tables
# ----------------------------------------------------------------------
def render_sweep(sweep: Mapping[float, Mapping[str, float]], title: str) -> str:
    """Render a HPD (or SER) sweep as a text table, one row per setting."""
    headers = ["setting"] + list(STRATEGIES)
    rows = []
    for setting, values in sweep.items():
        label = f"{setting:g}"
        rows.append([label] + [values.get(strategy, 0.0) for strategy in STRATEGIES])
    return format_table(headers, rows, title=title)


def render_arc_table(
    table: Mapping[float, Mapping[float, Mapping[str, float]]], title: str
) -> str:
    """Render the Fig. 6b style table: rows are (HPD, ArC), columns strategies."""
    headers = ["HPD %", "ArC"] + list(STRATEGIES)
    rows = []
    for hpd, per_arc in table.items():
        for arc, values in per_arc.items():
            rows.append(
                [f"{hpd:g}", f"{arc:g}"]
                + [values.get(strategy, 0.0) for strategy in STRATEGIES]
            )
    return format_table(headers, rows, title=title)
