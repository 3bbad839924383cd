"""Job queue semantics of repro.serve: validation, backpressure, specs."""

from __future__ import annotations

import asyncio
import json
import pickle

import pytest

from repro.core.exceptions import ModelError
from repro.serve.jobs import Job, JobManager, ServeConfig, _execute_job
from repro.serve.progress import EventWriter, SpoolSealed, iter_new_lines
from repro.serve.protocol import HttpError, event_line, stream_head
from repro.serve.server import ServeApp


def _manager(tmp_path, **overrides) -> JobManager:
    """A started-but-consumerless manager: submissions queue, nothing runs.

    start() spins up the process pool, which these tests never need — the
    spool/store directories and the queue are enough to exercise
    validation and backpressure, so the private fields are seeded directly.
    """
    config = ServeConfig(spool_dir=tmp_path / "spool", **overrides)
    manager = JobManager(config)
    manager._spool_dir = config.spool_dir
    manager._spool_dir.mkdir(parents=True, exist_ok=True)
    manager._store_dir = config.spool_dir / "store"
    manager._store_dir.mkdir(parents=True, exist_ok=True)
    manager._queue = asyncio.Queue(maxsize=config.queue_size)
    return manager


# ----------------------------------------------------------------------
# ServeConfig validation
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "kwargs",
    [
        {"workers": 0},
        {"queue_size": 0},
        {"job_timeout_seconds": 0.0},
        {"job_timeout_seconds": -1.0},
        {"job_timeout_seconds": float("nan")},
        {"job_timeout_seconds": float("inf")},
        {"port": -1},
        {"port": 65536},
        {"workers": True},
        {"queue_size": True},
        {"port": True},
        {"cache_size_mb": True},
        {"cache_size_mb": 0},
        {"workers": 2.5},
        {"port": "8321"},
        {"job_timeout_seconds": "30"},
        {"job_timeout_seconds": True},
    ],
)
def test_serve_config_rejects_degenerate_values(kwargs):
    with pytest.raises(ModelError):
        ServeConfig(**kwargs)


# ----------------------------------------------------------------------
# submission validation (all 400s happen at submit time, never later)
# ----------------------------------------------------------------------
def test_submit_validates_scenario_config_and_params(tmp_path):
    manager = _manager(tmp_path)
    for payload in [
        {},  # no scenario
        {"scenario": 7},  # wrong type
        {"scenario": "no-such-scenario"},
        {"scenario": "fig6a", "config": "not-a-dict"},
        {"scenario": "fig6a", "config": {"bogus_field": 1}},
        {"scenario": "fig6a", "config": {"preset": "no-such-preset"}},
        # fig6a declares no parameters, so any override is out of schema.
        {"scenario": "fig6a", "config": {"scenario_params": {"x": 1}}},
        # A family parameter outside its declared bounds.
        {"scenario": "synthetic-random", "config": {"scenario_params": {"n_processes": -3}}},
        # A JSON ``true`` is not a number, and NaN is not a probability.
        {"scenario": "synthetic-random", "config": {"scenario_params": {"n_processes": True}}},
        {
            "scenario": "synthetic-random",
            "config": {"scenario_params": {"extra_edge_probability": float("nan")}},
        },
        {
            "scenario": "synthetic-random",
            "config": {"scenario_params": {"extra_edge_probability": True}},
        },
        # numpy seeds must be non-negative: caught at submit, not at run time.
        {"scenario": "fig6a", "config": {"seed": -5}},
        {"scenario": "synthetic-random", "config": {"scenario_params": {"seed": -3}}},
    ]:
        with pytest.raises(HttpError) as info:
            manager.submit(payload)
        assert info.value.status == 400
    assert manager.jobs == {}


@pytest.mark.parametrize("field", ["sfp_kernel", "sched_kernel"])
def test_submit_rejects_the_removed_kernel_fields(tmp_path, field):
    """Each kernel family has one production backend; a payload still
    naming one is a 400 at submit time, not a job that runs anyway."""
    manager = _manager(tmp_path)
    with pytest.raises(HttpError) as info:
        manager.submit({"scenario": "fig6a", "config": {field: "reference"}})
    assert info.value.status == 400
    assert f"Unknown RunConfig fields: ['{field}']" in str(info.value)
    assert manager.jobs == {}


def test_submit_enqueues_and_spools_the_queued_event(tmp_path):
    manager = _manager(tmp_path)
    job = manager.submit({"scenario": "fig6a", "config": {"preset": "fast"}})
    assert job.job_id == "job-000000"
    assert job.state == "queued"
    assert manager.queue_position(job) == 0
    # The server owns persistence: the shared store is forced in.
    assert job.config.cache_dir == manager.store_dir
    assert job.config.output is None
    lines, _ = iter_new_lines(job.events_path, 0)
    events = [__import__("json").loads(line) for line in lines]
    assert [event["event"] for event in events] == ["job_queued"]
    assert events[0]["queue_position"] == 0


@pytest.mark.parametrize("jobs", [0, 64])
def test_submit_forces_serial_jobs(tmp_path, jobs):
    """A job runs inside a pool worker, so its own process pool would be
    forked there; the server runs every job serially instead.  The job is
    only queued here, never executed."""
    manager = _manager(tmp_path)
    job = manager.submit({"scenario": "fig6a", "config": {"jobs": jobs}})
    assert job.config.jobs == 1
    assert job.spec()["config"]["jobs"] == 1


def test_submit_applies_backpressure_with_retry_after(tmp_path):
    manager = _manager(tmp_path, queue_size=2, job_timeout_seconds=30.0)
    payload = {"scenario": "fig6a", "config": {"preset": "fast"}}
    manager.submit(payload)
    manager.submit(payload)
    with pytest.raises(HttpError) as info:
        manager.submit(payload)
    assert info.value.status == 429
    assert info.value.retry_after == 30
    # The rejected job never entered the registry.
    assert len(manager.jobs) == 2


def test_queue_positions_are_fifo_and_cleared_once_running(tmp_path):
    manager = _manager(tmp_path)
    payload = {"scenario": "fig6a", "config": {}}
    first = manager.submit(payload)
    second = manager.submit(payload)
    assert manager.queue_position(first) == 0
    assert manager.queue_position(second) == 1
    first.state = "running"
    assert manager.queue_position(first) is None
    assert manager.queue_position(second) == 0


def test_get_unknown_job_is_a_404(tmp_path):
    manager = _manager(tmp_path)
    with pytest.raises(HttpError) as info:
        manager.get("job-999999")
    assert info.value.status == 404


# ----------------------------------------------------------------------
# the pool-boundary spec contract (R006 by construction)
# ----------------------------------------------------------------------
def test_job_spec_is_scalar_and_picklable(tmp_path):
    manager = _manager(tmp_path)
    job = manager.submit(
        {
            "scenario": "synthetic-random",
            "config": {"preset": "fast", "scenario_params": {"n_processes": 20, "seed": 3}},
        }
    )
    spec = job.spec()
    # Picklable by construction — and round-trips without loss.
    assert pickle.loads(pickle.dumps(spec)) == spec
    # Nothing but JSON-native scalars/containers crosses the boundary.
    import json

    assert json.loads(json.dumps(spec)) == spec
    assert spec["config"]["cache_dir"] == str(manager.store_dir)


def test_state_counts_cover_every_state(tmp_path):
    manager = _manager(tmp_path)
    payload = {"scenario": "fig6a", "config": {}}
    jobs = [manager.submit(payload) for _ in range(4)]
    jobs[1].state = "running"
    jobs[2].state = "done"
    jobs[3].state = "failed"
    assert manager.state_counts() == {
        "queued": 1,
        "running": 1,
        "done": 1,
        "failed": 1,
    }


def test_describe_reports_the_lifecycle_record(tmp_path):
    manager = _manager(tmp_path)
    job = manager.submit({"scenario": "fig6a", "config": {}})
    record = job.describe(queue_position=0)
    assert record["id"] == job.job_id
    assert record["scenario"] == "fig6a"
    assert record["state"] == "queued"
    assert record["queue_position"] == 0
    assert record["error"] is None
    assert record["config"]["cache_dir"] == str(manager.store_dir)


# ----------------------------------------------------------------------
# sealed spools: the terminal event is the last event relayed
# ----------------------------------------------------------------------
class _RecordingWriter:
    """Stand-in for ``asyncio.StreamWriter`` that keeps the written bytes."""

    def __init__(self) -> None:
        self.data = b""

    def write(self, data: bytes) -> None:
        self.data += data

    async def drain(self) -> None:
        return None


def test_stream_stops_relaying_at_the_terminal_event(tmp_path):
    """A worker line appended after ``job_failed`` is never relayed."""
    manager = _manager(tmp_path)
    job = manager.submit({"scenario": "fig6a", "config": {}})
    late = {"event": "setting_progress", "job": job.job_id, "completed": 2}
    job.events_path.write_bytes(
        b"".join(
            event_line(event)
            for event in [
                {"event": "job_queued", "job": job.job_id},
                {"event": "job_started", "job": job.job_id},
                {"event": "setting_progress", "job": job.job_id, "completed": 1},
                {"event": "job_failed", "job": job.job_id, "error": "timed out"},
                late,
                {"event": "job_done", "job": job.job_id},
            ]
        )
    )
    app = ServeApp(manager.config)
    writer = _RecordingWriter()
    asyncio.run(asyncio.wait_for(app.stream_events(job, writer), timeout=10.0))
    head = stream_head()
    assert writer.data.startswith(head)
    events = [json.loads(line) for line in writer.data[len(head):].splitlines()]
    assert [event["event"] for event in events] == [
        "job_queued",
        "job_started",
        "setting_progress",
        "job_failed",
    ]


def test_sealed_writer_raises_and_keeps_the_terminal_event_last(tmp_path):
    path = tmp_path / "job-000000.ndjson"
    worker = EventWriter(path)
    worker.emit({"event": "setting_progress", "completed": 1})
    EventWriter(path).seal({"event": "job_failed", "error": "timed out"})
    assert worker.sealed_path == tmp_path / "job-000000.ndjson.sealed"
    assert worker.sealed_path.exists()
    with pytest.raises(SpoolSealed):
        worker.emit({"event": "setting_progress", "completed": 2})
    lines, _ = iter_new_lines(path, 0)
    assert [json.loads(line)["event"] for line in lines] == [
        "setting_progress",
        "job_failed",
    ]


def test_worker_stops_at_its_first_event_on_a_sealed_spool(tmp_path):
    """A timed-out job's worker raises instead of running on."""
    manager = _manager(tmp_path)
    job = manager.submit({"scenario": "fig6a", "config": {"preset": "fast"}})
    EventWriter(job.events_path).seal({"event": "job_failed", "error": "timed out"})
    with pytest.raises(SpoolSealed):
        _execute_job(job.spec())
    lines, _ = iter_new_lines(job.events_path, 0)
    assert json.loads(list(lines)[-1])["event"] == "job_failed"


# ----------------------------------------------------------------------
# pool replacement after a worker death
# ----------------------------------------------------------------------
class _StubPool:
    def __init__(self):
        self.shutdowns = []

    def shutdown(self, wait=True, cancel_futures=False):
        self.shutdowns.append((wait, cancel_futures))


def test_a_broken_pool_is_replaced_once_however_many_consumers_report_it(tmp_path):
    manager = _manager(tmp_path)
    broken, fresh = _StubPool(), _StubPool()
    built = []

    def new_pool():
        built.append(fresh)
        return fresh

    manager._executor = broken
    manager._new_pool = new_pool
    manager._replace_broken_pool(broken)
    manager._replace_broken_pool(broken)  # a second consumer saw the same breakage
    assert manager._executor is fresh
    assert built == [fresh]
    assert broken.shutdowns == [(False, True)]
    assert fresh.shutdowns == []
