"""Job queue and worker pool of the evaluation service.

A *job* is one scenario run requested over HTTP: a scenario id plus a
:class:`~repro.api.config.RunConfig` document.  The :class:`JobManager`
owns a bounded ``asyncio.Queue`` feeding N consumer tasks, each of which
executes its job in a shared ``ProcessPoolExecutor`` so scenario runs never
block the event loop (or each other, up to the worker count).

**Pool-boundary discipline (R006/R007 by construction).**  Exactly one
payload crosses into the pool — :meth:`Job.spec`, a dict of JSON-native
scalars (the config as ``RunConfig.to_dict()``, the spool path as a
string).  No live :class:`Session`, engine, or store handle is ever
submitted; the worker-side :func:`_execute_job` rebuilds everything from
the spec.  All workers share one persistent
:class:`~repro.engine.store.DesignPointStore` directory, whose single-flight
guard (taken whenever a store is attached) makes two jobs over the same
context fingerprint compute each design point exactly once.

**Backpressure.**  A full queue rejects the submission with HTTP 429 and a
``Retry-After`` hint; a per-job wall-clock timeout marks the job
``failed``, abandons the worker-side future and seals the job's event
spool: the worker's next progress event raises, ending the run and freeing
its pool slot (a worker cannot be killed without tearing down the whole
pool, so a run stops at its next event, not instantly).

**Worker death.**  A pool worker that dies (killed, out of memory) breaks
the whole pool: every job in the pool fails with ``BrokenProcessPool`` and
is sealed with ``job_failed`` like any other failure, and the manager swaps
in a fresh pool so the consumers keep serving later jobs.
"""

from __future__ import annotations

import asyncio
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from math import isfinite
from numbers import Integral, Real
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.api.config import DEFAULT_CACHE_SIZE_MB, RunConfig
from repro.api.registry import get_scenario
from repro.api.session import Session
from repro.core.exceptions import ModelError
from repro.serve.progress import EventWriter
from repro.serve.protocol import HttpError

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8321

#: Job lifecycle states, in order.
JOB_STATES = ("queued", "running", "done", "failed")


@dataclass(frozen=True)
class ServeConfig:
    """Static configuration of one server process.

    ``spool_dir`` holds the per-job NDJSON event spools and (by default)
    the shared design-point store under ``<spool_dir>/store``; pass
    ``cache_dir`` to place the store elsewhere.  ``job_timeout_seconds``
    bounds each job's wall clock (``None`` = unbounded).  ``sanitize``
    installs the runtime determinism sanitizer in every pool worker and
    fails jobs that record violations.
    """

    host: str = DEFAULT_HOST
    port: int = DEFAULT_PORT
    workers: int = 2
    queue_size: int = 16
    job_timeout_seconds: Optional[float] = None
    spool_dir: Optional[Path] = None
    cache_dir: Optional[Path] = None
    cache_size_mb: int = DEFAULT_CACHE_SIZE_MB
    sanitize: bool = False

    def __post_init__(self) -> None:
        # The same checks as RunConfig: a bool is an Integral but not a
        # count, and every bound is checked here rather than at bind time or
        # on the first request.
        for field_name, low, high in (
            ("port", 0, 65535),
            ("workers", 1, None),
            ("queue_size", 1, None),
            ("cache_size_mb", 1, None),
        ):
            value = getattr(self, field_name)
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise ModelError(f"serve {field_name} must be an integer, got {value!r}")
            if value < low or (high is not None and value > high):
                bound = f">= {low}" if high is None else f"in {low}..{high}"
                raise ModelError(f"serve {field_name} must be {bound}, got {value}")
        timeout = self.job_timeout_seconds
        if timeout is not None and (
            isinstance(timeout, bool)
            or not isinstance(timeout, Real)
            or not isfinite(timeout)
            or timeout <= 0
        ):
            raise ModelError(
                f"serve job_timeout_seconds must be a finite number > 0, got {timeout!r}"
            )


@dataclass
class Job:
    """One submitted scenario run and its lifecycle record."""

    job_id: str
    seq: int
    scenario: str
    config: RunConfig
    events_path: Path
    state: str = "queued"
    created_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    error: Optional[str] = None
    result: Optional[Dict[str, Any]] = None
    #: Set once the spool is sealed with the terminal event; event streams
    #: wait on it between polls instead of finding the terminal line late.
    sealed: asyncio.Event = field(default_factory=asyncio.Event, repr=False, compare=False)

    def spec(self) -> Dict[str, Any]:
        """The picklable payload that crosses the pool boundary.

        JSON-native scalars and containers only — never live handles — so
        the submission is fork/pickle-safe by construction (R006).
        """
        return {
            "job_id": self.job_id,
            "scenario": self.scenario,
            "config": self.config.to_dict(),
            "events_path": str(self.events_path),
        }

    def describe(self, queue_position: Optional[int] = None) -> Dict[str, Any]:
        """The job's public JSON view (``GET /jobs/<id>`` without payload)."""
        payload: Dict[str, Any] = {
            "id": self.job_id,
            "scenario": self.scenario,
            "state": self.state,
            "config": self.config.to_dict(),
            "created_at": self.created_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "error": self.error,
        }
        if queue_position is not None:
            payload["queue_position"] = queue_position
        return payload


# ----------------------------------------------------------------------
# worker-side execution (runs inside ProcessPoolExecutor workers)
# ----------------------------------------------------------------------
def _init_serve_worker(sanitize: bool) -> None:
    """Pool initializer: opt the worker into the determinism sanitizer.

    ``sanitize`` sets the environment variable that
    :func:`~repro.lint.sanitizer.install_from_env` reads, like the experiment
    pool's initializer does through the inherited environment.
    """
    from repro.lint.sanitizer import SANITIZE_ENV, install_from_env

    if sanitize:
        os.environ.setdefault(SANITIZE_ENV, "1")
    install_from_env()


def _execute_job(spec: Dict[str, Any]) -> Dict[str, Any]:
    """Run one job spec to completion; returns ``RunReport.to_dict()``.

    Rebuilds the full execution context from the scalar spec: the frozen
    config and a :class:`Session` with the spool-backed progress observer
    (the config's store brings the single-flight guard with it).  Under the
    sanitizer, violations recorded during *this* job fail it loudly instead
    of accumulating silently in a long-lived worker.
    """
    from repro.lint.sanitizer import active_sanitizer

    config = RunConfig.from_dict(spec["config"])
    writer = EventWriter(Path(spec["events_path"]))
    sanitizer = active_sanitizer()
    violations_before = len(sanitizer.violations) if sanitizer is not None else 0
    with Session(config, progress=writer.emit) as session:
        report = session.run(spec["scenario"])
    if sanitizer is not None and len(sanitizer.violations) > violations_before:
        fresh = sanitizer.violations[violations_before:]
        raise RuntimeError(
            f"determinism sanitizer recorded {len(fresh)} violation(s) "
            f"during job {spec['job_id']}: {fresh}"
        )
    return report.to_dict()


# ----------------------------------------------------------------------
# server-side queue and consumers
# ----------------------------------------------------------------------
class JobManager:
    """Bounded job queue + N asyncio consumers over one shared process pool."""

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        self.jobs: Dict[str, Job] = {}
        self._seq = 0
        # Created in start(): binding an asyncio.Queue outside the running
        # loop is wrong-loop territory on older Pythons.
        self._queue: Optional["asyncio.Queue[Job]"] = None
        self._executor: Optional[ProcessPoolExecutor] = None
        self._consumers: List["asyncio.Task[None]"] = []
        self._spool_dir: Optional[Path] = None
        self._store_dir: Optional[Path] = None

    # ------------------------------------------------------------------
    @property
    def spool_dir(self) -> Path:
        if self._spool_dir is None:
            raise RuntimeError("JobManager.start() has not run yet")
        return self._spool_dir

    @property
    def store_dir(self) -> Path:
        """Directory of the shared design-point store all jobs warm."""
        if self._store_dir is None:
            raise RuntimeError("JobManager.start() has not run yet")
        return self._store_dir

    async def start(self) -> None:
        """Create the spool/store directories, the pool and the consumers."""
        spool = self.config.spool_dir
        if spool is None:
            import tempfile

            spool = Path(tempfile.mkdtemp(prefix="repro-serve-"))
        spool.mkdir(parents=True, exist_ok=True)
        self._spool_dir = spool
        store = self.config.cache_dir if self.config.cache_dir is not None else spool / "store"
        store.mkdir(parents=True, exist_ok=True)
        self._store_dir = store
        self._queue = asyncio.Queue(maxsize=self.config.queue_size)
        self._executor = self._new_pool()
        self._consumers = [
            asyncio.get_running_loop().create_task(self._consume())
            for _ in range(self.config.workers)
        ]

    def _new_pool(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.config.workers,
            initializer=_init_serve_worker,
            initargs=(self.config.sanitize,),
        )

    def _replace_broken_pool(self, broken: ProcessPoolExecutor) -> None:
        """Swap a pool that lost a worker for a fresh one (once per breakage).

        A dead worker breaks the whole ``ProcessPoolExecutor``: every pending
        future fails and every later ``submit`` raises.  Each consumer that
        hit the breakage calls this; only the first, which still sees the
        broken pool installed, replaces it.
        """
        if self._executor is broken:
            broken.shutdown(wait=False, cancel_futures=True)
            self._executor = self._new_pool()

    async def close(self) -> None:
        """Cancel the consumers and release the pool (best effort)."""
        for task in self._consumers:
            task.cancel()
        for task in self._consumers:
            try:
                await task
            except asyncio.CancelledError:
                pass
        self._consumers = []
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None

    # ------------------------------------------------------------------
    def submit(self, payload: Dict[str, Any]) -> Job:
        """Validate one ``POST /jobs`` payload and enqueue it.

        Validation happens at submit time — unknown scenarios, malformed
        configs and out-of-schema parameters are a 400 here, never a
        ``failed`` job later.  A full queue is a 429 with ``Retry-After``.
        The queued config uses the server's store, writes no report file and
        runs with ``jobs=1``, whatever the payload asked for.
        """
        queue = self._queue
        if queue is None:
            raise RuntimeError("JobManager.start() has not run yet")
        scenario_id = payload.get("scenario")
        if not isinstance(scenario_id, str) or not scenario_id:
            raise HttpError(400, "payload must name a 'scenario' (string)")
        config_data = payload.get("config", {})
        if not isinstance(config_data, dict):
            raise HttpError(400, "'config' must be a RunConfig object")
        try:
            requested = RunConfig.from_dict(config_data)
            spec = get_scenario(scenario_id)
            spec.resolve_params(requested.scenario_params)
        except ModelError as error:
            raise HttpError(400, str(error)) from None
        # The server owns persistence: every job shares the warm store, and
        # report files are returned over HTTP, never written server-side.
        # It owns parallelism too: a job runs serially inside its pool
        # worker, so a client's ``jobs`` cannot make that worker fork more
        # processes.  Results are identical for any ``jobs`` value.
        effective = replace(
            requested,
            cache_dir=self.store_dir,
            cache_size_mb=self.config.cache_size_mb,
            jobs=1,
            output=None,
        )
        job_id = f"job-{self._seq:06d}"
        job = Job(
            job_id=job_id,
            seq=self._seq,
            scenario=scenario_id,
            config=effective,
            events_path=self.spool_dir / f"{job_id}.ndjson",
        )
        try:
            queue.put_nowait(job)
        except asyncio.QueueFull:
            raise HttpError(
                429,
                f"job queue is full ({self.config.queue_size} pending)",
                retry_after=self._retry_after_hint(),
            ) from None
        self._seq += 1
        self.jobs[job_id] = job
        EventWriter(job.events_path).emit(
            {
                "event": "job_queued",
                "job": job_id,
                "scenario": scenario_id,
                "queue_position": self.queue_position(job),
            }
        )
        return job

    def get(self, job_id: str) -> Job:
        job = self.jobs.get(job_id)
        if job is None:
            raise HttpError(404, f"unknown job {job_id!r}")
        return job

    def queue_position(self, job: Job) -> Optional[int]:
        """0-based position among queued jobs; ``None`` once running."""
        if job.state != "queued":
            return None
        return sum(
            1
            for other in self.jobs.values()
            if other.state == "queued" and other.seq < job.seq
        )

    def state_counts(self) -> Dict[str, int]:
        counts = {state: 0 for state in JOB_STATES}
        for job in self.jobs.values():
            counts[job.state] += 1
        return counts

    def _retry_after_hint(self) -> int:
        """Crude 429 hint: one timeout's worth of backoff, else 5 seconds."""
        if self.config.job_timeout_seconds is not None:
            return max(1, int(self.config.job_timeout_seconds))
        return 5

    # ------------------------------------------------------------------
    async def _consume(self) -> None:
        """One consumer: drain the queue into the process pool forever."""
        queue = self._queue
        assert queue is not None  # consumers spawn after start() creates it
        while True:
            job = await queue.get()
            try:
                await self._run_job(job)
            finally:
                queue.task_done()

    async def _run_job(self, job: Job) -> None:
        """Run one job to its outcome, then seal its spool and wake its streams.

        Every way out — success, failure, timeout, a closed manager, and
        cancellation at :meth:`close` — ends in the same seal, so every job
        gets exactly one terminal event and no stream waits on it forever.
        """
        try:
            await self._execute(job)
        finally:
            job.finished_at = time.time()
            writer = EventWriter(job.events_path)
            if job.state == "done":
                writer.seal({"event": "job_done", "job": job.job_id, "scenario": job.scenario})
            else:
                writer.seal(
                    {
                        "event": "job_failed",
                        "job": job.job_id,
                        "scenario": job.scenario,
                        "error": job.error,
                    }
                )
            job.sealed.set()

    async def _execute(self, job: Job) -> None:
        """Run the job in the pool; records its outcome on ``job``."""
        executor = self._executor
        if executor is None:  # pragma: no cover - close() raced a consumer
            job.state = "failed"
            job.error = "server shutting down"
            return
        job.state = "running"
        job.started_at = time.time()
        EventWriter(job.events_path).emit(
            {"event": "job_started", "job": job.job_id, "scenario": job.scenario}
        )
        future: "Optional[asyncio.Future[Dict[str, Any]]]" = None
        try:
            future = asyncio.wrap_future(executor.submit(_execute_job, job.spec()))
            if self.config.job_timeout_seconds is not None:
                result = await asyncio.wait_for(future, self.config.job_timeout_seconds)
            else:
                result = await future
        except asyncio.TimeoutError:
            job.state = "failed"
            job.error = f"timed out after {self.config.job_timeout_seconds:g} s"
        except asyncio.CancelledError:
            job.state = "failed"
            job.error = "cancelled"
            raise
        except Exception as error:  # noqa: BLE001 - job failures must not kill the consumer
            job.state = "failed"
            job.error = f"{type(error).__name__}: {error}"
            if isinstance(error, BrokenProcessPool):
                self._replace_broken_pool(executor)
        else:
            job.state = "done"
            job.result = result
        finally:
            # Abandons a timed-out or cancelled run; a no-op once it finished.
            if future is not None:
                future.cancel()
