"""The Session: one configured front door to the evaluation machinery.

A :class:`Session` binds a frozen :class:`~repro.api.config.RunConfig` to
the evaluation machinery and owns, for its lifetime, **the shared
experiment**: :meth:`experiment` memoizes one
:class:`~repro.experiments.synthetic.AcceptanceExperiment` so scenarios run
back to back (e.g. Fig. 6a then 6b) reuse each other's settings.

The session holds no store handle.  With ``config.cache_dir`` set, every
store-backed evaluation opens its own
:class:`~repro.engine.store.DesignPointStore` on that directory and holds
the store's single-flight guard, so concurrent sessions sharing the
directory compute each context once.

Scenarios execute through :meth:`run`, which times the runner and assembles
the structured :class:`~repro.api.report.RunReport`.
"""

from __future__ import annotations

import time
from types import TracebackType
from typing import Any, Callable, Dict, Mapping, Optional

from repro.api.config import RunConfig
from repro.api.registry import get_scenario
from repro.api.report import RunReport
from repro.experiments.synthetic import AcceptanceExperiment, sum_cache_counters

#: Observer invoked with one JSON-native event dict per progress step —
#: ``scenario_started`` / ``setting_progress`` (with engine cache
#: counter snapshots per optimizer round) / ``scenario_finished``.  The
#: serve layer streams these as NDJSON; a callback must never mutate the
#: event or raise (a raising observer aborts the run it watches).
ProgressCallback = Callable[[Dict[str, Any]], None]


class Session:
    """Configured execution context for scenarios and ad-hoc evaluation.

    Usable as a context manager — ``with Session(config) as session:``
    closes the shared experiment (and its worker pool) on exit — or directly
    through :meth:`run`.
    """

    def __init__(
        self,
        config: Optional[RunConfig] = None,
        progress: Optional[ProgressCallback] = None,
    ) -> None:
        self.config = config if config is not None else RunConfig()
        #: Optional progress observer (see :data:`ProgressCallback`).  Like
        #: the sanitizer this is deliberately *not* a :class:`RunConfig`
        #: field: it is an observer handle, not an experiment parameter, and
        #: keeping it out of the frozen config preserves the lossless config
        #: round-trip in report JSON.
        self.progress = progress
        self._experiment: Optional[AcceptanceExperiment] = None
        self._scenario_counters = sum_cache_counters(())

    # ------------------------------------------------------------------
    # context management
    # ------------------------------------------------------------------
    def __enter__(self) -> "Session":
        return self

    def __exit__(
        self,
        exc_type: Optional[type],
        exc_value: Optional[BaseException],
        traceback: Optional[TracebackType],
    ) -> None:
        if self._experiment is not None:
            self._experiment.close()

    # ------------------------------------------------------------------
    # owned resources
    # ------------------------------------------------------------------
    def experiment(self) -> AcceptanceExperiment:
        """The session's shared synthetic experiment (memoized).

        Sharing matters: the Fig. 6b cost table reuses the Fig. 6a settings,
        so running both scenarios in one session computes each (SER, HPD)
        setting exactly once.
        """
        if self._experiment is None:
            jobs = self.config.jobs
            self._experiment = AcceptanceExperiment(
                preset=self.config.resolved_preset(),
                n_jobs=jobs,
                store_dir=self.config.cache_dir,
                store_max_bytes=self.config.cache_max_bytes,
                progress=self.emit_progress if self.progress is not None else None,
            )
        return self._experiment

    def emit_progress(self, event: Dict[str, Any]) -> None:
        """Forward one progress event to the session's observer, if any."""
        if self.progress is not None:
            self.progress(event)

    def add_cache_counters(self, counters: Mapping[str, float]) -> None:
        """Accumulate engine counters from a scenario-owned engine.

        Scenarios that run their own :class:`EvaluationEngine` (the
        generator-backed families) rather than the shared experiment call
        this so their cache statistics still surface in the
        :class:`~repro.api.report.RunReport`.  Only the additive counters
        are summed; ``hit_rate`` is derived from them on read.
        """
        self._scenario_counters = sum_cache_counters((self._scenario_counters, counters))

    def cache_report(self) -> Dict[str, float]:
        """Aggregate engine counters over the experiment and scenario engines."""
        parts = [self._scenario_counters]
        if self._experiment is not None:
            parts.append(self._experiment.cache_report())
        return sum_cache_counters(parts)

    # ------------------------------------------------------------------
    # scenario execution
    # ------------------------------------------------------------------
    def run(self, scenario_id: str) -> RunReport:
        """Run one registered scenario and return its structured report.

        ``config.output`` is deliberately *not* written here: a session can
        run many scenarios, and each run silently overwriting the previous
        report would lose data.  The one-shot :func:`repro.api.run` (and the
        CLI driver on top of it) persists the single report it produces.
        """
        spec = get_scenario(scenario_id)
        params = spec.resolve_params(self.config.scenario_params)
        self.emit_progress(
            {"event": "scenario_started", "scenario": scenario_id, "params": dict(params)}
        )
        start = time.perf_counter()
        outcome = spec.runner(self, params)
        wall_clock = time.perf_counter() - start
        self.emit_progress(
            {
                "event": "scenario_finished",
                "scenario": scenario_id,
                "wall_clock_seconds": wall_clock,
                "cache": self.cache_report(),
            }
        )
        report = RunReport(
            scenario=scenario_id,
            config=self.config,
            results=outcome.payload,
            params=params,
            cache=self.cache_report(),
            timings={"wall_clock_seconds": wall_clock},
            text=outcome.text,
        )
        # Runtime determinism sanitizer hook (R008): when active, walk the
        # assembled report's JSON-facing fields before any consumer calls
        # to_json.  Lazy import keeps repro.lint off unsanitized runs.
        from repro.lint.sanitizer import active_sanitizer

        sanitizer = active_sanitizer()
        if sanitizer is not None:
            sanitizer.check_report(
                {
                    "results": report.results,
                    "params": report.params,
                    "cache": report.cache,
                    "timings": report.timings,
                },
                scenario_id,
            )
        return report
