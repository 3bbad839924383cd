"""End-to-end HTTP tests of repro.serve: jobs, streams, shared warm store.

A real :class:`ServeApp` runs on an ephemeral port in a background thread
with its own event loop; tests talk to it through ``http.client`` exactly
like an external consumer.  The expensive contracts live here:

* the report returned over HTTP for the fast-preset ``fig6a`` job is
  byte-identical to the committed golden fixture;
* two concurrent jobs with the *same* context fingerprint share the warm
  store single-flight — the second job computes zero design points;
* N concurrent jobs with *distinct* contexts return payloads byte-identical
  to sequential in-process runs of the same configs;
* backpressure (429 + Retry-After), the per-job timeout and the death of a
  pool worker.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import signal
import threading
import time
from http.client import HTTPConnection
from pathlib import Path

import pytest

from repro import api
from repro.serve import ServeApp, ServeConfig
from repro.serve.jobs import JobManager

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "golden"

#: Fixed size/seed of the synthetic-random jobs used below: big enough for
#: a non-trivial DSE trajectory, small enough to keep the suite fast.
RANDOM_PARAMS = {"n_processes": 30, "seed": 11}


@contextlib.contextmanager
def serve_app(tmp_path, **overrides):
    """A live server on an ephemeral port; yields ``(host, port, app)``."""
    overrides.setdefault("spool_dir", tmp_path / "serve")
    config = ServeConfig(host="127.0.0.1", port=0, **overrides)
    app = ServeApp(config)
    ready = threading.Event()
    bound = {}
    loop = asyncio.new_event_loop()
    state = {}

    def on_ready(host: str, port: int) -> None:
        bound["host"], bound["port"] = host, port
        ready.set()

    def runner() -> None:
        asyncio.set_event_loop(loop)
        state["task"] = loop.create_task(app.run(ready=on_ready))
        try:
            loop.run_until_complete(state["task"])
        except asyncio.CancelledError:
            pass
        finally:
            loop.close()

    thread = threading.Thread(target=runner, daemon=True)
    thread.start()
    assert ready.wait(timeout=30.0), "server did not come up"
    try:
        yield bound["host"], bound["port"], app
    finally:
        loop.call_soon_threadsafe(state["task"].cancel)
        thread.join(timeout=30.0)
        assert not thread.is_alive(), "server thread did not shut down"


def _request(host, port, method, path, body=None, timeout=60.0):
    connection = HTTPConnection(host, port, timeout=timeout)
    try:
        connection.request(
            method, path, body=json.dumps(body) if body is not None else None
        )
        response = connection.getresponse()
        payload = response.read()
        return response.status, dict(response.getheaders()), payload
    finally:
        connection.close()


def _submit(host, port, scenario, config=None):
    status, headers, payload = _request(
        host, port, "POST", "/jobs", {"scenario": scenario, "config": config or {}}
    )
    assert status == 202, payload
    record = json.loads(payload)
    assert headers["Location"] == f"/jobs/{record['id']}"
    return record["id"]


def _stream_events(host, port, job_id, timeout=300.0):
    """Read the job's NDJSON stream to its terminal event."""
    connection = HTTPConnection(host, port, timeout=timeout)
    try:
        connection.request("GET", f"/jobs/{job_id}/events")
        response = connection.getresponse()
        assert response.status == 200
        assert response.getheader("Content-Type") == "application/x-ndjson"
        raw = response.read()  # server closes after the terminal event
    finally:
        connection.close()
    return [json.loads(line) for line in raw.decode("utf-8").splitlines()]


def _wait_done(host, port, job_id, timeout=300.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, _, payload = _request(host, port, "GET", f"/jobs/{job_id}")
        assert status == 200
        record = json.loads(payload)
        if record["state"] in ("done", "failed"):
            return record
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} did not finish within {timeout}s")


# ----------------------------------------------------------------------
# the full happy path, byte-identical to the golden fixture
# ----------------------------------------------------------------------
def test_fig6a_job_over_http_matches_the_golden_report(tmp_path):
    golden = json.loads((GOLDEN_DIR / "fig6a_fast.json").read_text())
    with serve_app(tmp_path, workers=1) as (host, port, _app):
        status, _, payload = _request(host, port, "GET", "/scenarios")
        assert status == 200
        scenarios = {spec["id"]: spec for spec in json.loads(payload)["scenarios"]}
        assert "fig6a" in scenarios
        assert any(
            param["name"] == "n_processes"
            for param in scenarios["synthetic-random"]["params"]
        )

        job_id = _submit(host, port, "fig6a", {"preset": "fast"})
        events = _stream_events(host, port, job_id)
        names = [event["event"] for event in events]
        assert names[0] == "job_queued"
        assert names[1] == "job_started"
        assert names[2] == "scenario_started"
        assert set(events[2]) == {"event", "scenario", "params"}
        assert names[-2] == "scenario_finished"
        assert names[-1] == "job_done"
        progress = [event for event in events if event["event"] == "setting_progress"]
        assert progress, "no per-round progress events streamed"
        # Each snapshot carries the engine cache counters of the round.
        for event in progress:
            assert {"hits", "misses", "points_computed", "completed", "total"} <= set(event)
        assert progress[-1]["completed"] == progress[-1]["total"]

        record = _wait_done(host, port, job_id)
        assert record["state"] == "done"
        assert "kernels" not in record["report"]
        # Byte-identity against the committed golden (the fixture *is* the
        # results payload): same contract as scripts/diff_report_golden.py.
        assert json.dumps(record["report"]["results"], sort_keys=True) == json.dumps(
            golden, sort_keys=True
        )

        status, _, payload = _request(host, port, "GET", "/healthz")
        health = json.loads(payload)
        assert health["status"] == "ok"
        assert health["jobs"]["done"] == 1
        assert health["store"]["files"] >= 1  # the job persisted its contexts


# ----------------------------------------------------------------------
# shared warm store: single-flight across concurrent identical jobs
# ----------------------------------------------------------------------
def test_concurrent_identical_jobs_compute_each_point_once(tmp_path):
    with serve_app(tmp_path, workers=2) as (host, port, _app):
        config = {"scenario_params": dict(RANDOM_PARAMS)}
        first = _submit(host, port, "synthetic-random", config)
        second = _submit(host, port, "synthetic-random", config)
        records = [_wait_done(host, port, job_id) for job_id in (first, second)]
        assert [record["state"] for record in records] == ["done", "done"]
        payloads = [
            json.dumps(record["report"]["results"], sort_keys=True)
            for record in records
        ]
        assert payloads[0] == payloads[1]
        computed = sorted(
            record["report"]["cache"]["points_computed"] for record in records
        )
        # Single-flight: the follower warm-loads the leader's persisted
        # entries and computes *nothing*; only one job paid the cold cost.
        assert computed[0] == 0
        assert computed[1] > 0
        follower = next(
            record
            for record in records
            if record["report"]["cache"]["points_computed"] == 0
        )
        assert follower["report"]["cache"]["disk_entries_loaded"] > 0


def test_parallel_distinct_jobs_match_sequential_runs_byte_for_byte(tmp_path):
    seeds = (3, 5, 9)
    with serve_app(tmp_path, workers=3) as (host, port, _app):
        job_ids = [
            _submit(
                host,
                port,
                "synthetic-random",
                {"scenario_params": {"n_processes": 25, "seed": seed}},
            )
            for seed in seeds
        ]
        records = [_wait_done(host, port, job_id) for job_id in job_ids]
    assert all(record["state"] == "done" for record in records)
    for seed, record in zip(seeds, records):
        sequential = api.run(
            "synthetic-random",
            api.RunConfig(scenario_params={"n_processes": 25, "seed": seed}),
        )
        assert json.dumps(record["report"]["results"], sort_keys=True) == json.dumps(
            sequential.results, sort_keys=True
        )


# ----------------------------------------------------------------------
# the terminal event wakes its streams
# ----------------------------------------------------------------------
def test_terminal_event_is_relayed_without_waiting_for_a_poll(tmp_path, monkeypatch):
    """With a 30 s poll, only the seal's wake-up can deliver the end in time."""
    from repro.serve import server

    monkeypatch.setattr(server, "_EVENT_POLL_SECONDS", 30.0)
    with serve_app(tmp_path, workers=1) as (host, port, _app):
        # Fork the pool worker first: a worker forked while the stream is
        # open would inherit its socket.
        warmup = _submit(host, port, GOLDEN_JOB["scenario"], GOLDEN_JOB["config"])
        assert _wait_done(host, port, warmup)["state"] == "done"

        job_id = _submit(host, port, "synthetic-random", {"scenario_params": RANDOM_PARAMS})
        connection = HTTPConnection(host, port, timeout=300.0)
        try:
            connection.request("GET", f"/jobs/{job_id}/events")
            response = connection.getresponse()
            while True:
                line = response.readline()
                assert line, "stream closed before its terminal event"
                if json.loads(line)["event"] in ("job_done", "job_failed"):
                    arrived = time.time()
                    break
        finally:
            connection.close()
        record = _wait_done(host, port, job_id)
    assert record["state"] == "done", record["error"]
    assert arrived - record["finished_at"] < 5.0


# ----------------------------------------------------------------------
# backpressure and timeouts
# ----------------------------------------------------------------------
def test_full_queue_returns_429_with_retry_after(tmp_path):
    with serve_app(
        tmp_path, workers=1, queue_size=1, job_timeout_seconds=120.0
    ) as (host, port, _app):
        config = {"preset": "fast"}
        # Saturate: one job running (dequeued), then fill the single queue
        # slot, then overflow.  The first submission may still sit in the
        # queue for a beat, so allow one extra attempt before asserting.
        _submit(host, port, "fig6a", config)
        statuses = []
        for _ in range(3):
            status, headers, payload = _request(
                host, port, "POST", "/jobs", {"scenario": "fig6a", "config": config}
            )
            statuses.append(status)
            if status == 429:
                assert headers["Retry-After"] == "120"
                record = json.loads(payload)
                assert record["status"] == 429
                break
        assert 429 in statuses


def test_job_timeout_records_a_failed_job(tmp_path):
    with serve_app(tmp_path, workers=1, job_timeout_seconds=0.2) as (
        host,
        port,
        app,
    ):
        job_id = _submit(host, port, "fig6a", {"preset": "fast"})
        record = _wait_done(host, port, job_id)
        assert record["state"] == "failed"
        assert "timed out" in record["error"]
        events = _stream_events(host, port, job_id)
        assert events[-1]["event"] == "job_failed"
        assert [event["event"] for event in events].count("job_failed") == 1
        # The spool is sealed, so the abandoned worker stops at its next event.
        assert app.manager.spool_dir.joinpath(f"{job_id}.ndjson.sealed").exists()


# ----------------------------------------------------------------------
# sanitized worker path
# ----------------------------------------------------------------------
def test_sanitized_serve_worker_stays_silent_and_correct(tmp_path):
    golden = json.loads((GOLDEN_DIR / "fig6a_fast.json").read_text())
    with serve_app(tmp_path, workers=1, sanitize=True) as (host, port, _app):
        job_id = _submit(host, port, "fig6a", {"preset": "fast"})
        record = _wait_done(host, port, job_id)
        # A sanitizer violation would fail the job (the worker raises); a
        # clean run must stay done AND byte-identical.
        assert record["state"] == "done", record["error"]
        assert json.dumps(record["report"]["results"], sort_keys=True) == json.dumps(
            golden, sort_keys=True
        )


@pytest.mark.parametrize("field", ["sfp_kernel", "sched_kernel"])
def test_post_jobs_rejects_the_removed_kernel_fields(tmp_path, field):
    with serve_app(tmp_path, workers=1) as (host, port, app):
        status, _, payload = _request(
            host, port, "POST", "/jobs", {"scenario": "fig6a", "config": {field: "reference"}}
        )
        assert status == 400
        assert f"Unknown RunConfig fields: ['{field}']" in json.loads(payload)["error"]
        assert app.manager.jobs == {}


def test_post_jobs_rejects_a_mistyped_config(tmp_path):
    """A config value of the wrong type is a 400, not a 500."""
    with serve_app(tmp_path, workers=1) as (host, port, app):
        status, _, payload = _request(
            host, port, "POST", "/jobs", {"scenario": "fig6a", "config": {"jobs": "2"}}
        )
        assert status == 400
        assert "jobs must be an integer" in json.loads(payload)["error"]
        assert app.manager.jobs == {}


def test_unknown_routes_and_methods(tmp_path):
    with serve_app(tmp_path, workers=1) as (host, port, _app):
        assert _request(host, port, "GET", "/nope")[0] == 404
        assert _request(host, port, "POST", "/scenarios", {})[0] == 405
        assert _request(host, port, "GET", "/jobs/job-404404")[0] == 404
        assert _request(host, port, "GET", "/jobs/job-404404/events")[0] == 404


# ----------------------------------------------------------------------
# pool worker death
# ----------------------------------------------------------------------
def _synthetic_job(n_processes, seed):
    params = {"n_processes": n_processes, "seed": seed}
    return {"scenario": "synthetic-random", "config": {"preset": "smoke", "scenario_params": params}}


#: The golden smoke point, and a job big enough to still be running when
#: its worker is killed.
GOLDEN_JOB = _synthetic_job(10, 3)
LONG_JOB = _synthetic_job(800, 1)


async def _until(predicate, timeout=120.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition not reached in time"
        await asyncio.sleep(0.02)


def _events(job):
    return [json.loads(line) for line in job.events_path.read_text().splitlines()]


def _kill_pool_workers(manager):
    for pid in list(manager._executor._processes):
        os.kill(pid, signal.SIGKILL)


async def _run_after_worker_death(tmp_path, kill_while_running):
    """Kill the only pool worker, then run the golden job on the same manager.

    ``kill_while_running`` kills it in the middle of a long job (the job's
    future fails); otherwise it dies idle and the pool is found broken when
    the next job is submitted to it.
    """
    manager = JobManager(ServeConfig(spool_dir=tmp_path / "serve", workers=1))
    await manager.start()
    closed = False
    try:
        if kill_while_running:
            killed = manager.submit(LONG_JOB)
            await _until(lambda: "scenario_started" in killed.events_path.read_text())
            _kill_pool_workers(manager)
        else:
            warmup = manager.submit(GOLDEN_JOB)
            await _until(lambda: warmup.state in ("done", "failed"))
            assert warmup.state == "done", warmup.error
            broken = manager._executor
            _kill_pool_workers(manager)
            await _until(lambda: broken._broken)
            killed = manager.submit(GOLDEN_JOB)
        await _until(lambda: killed.state in ("done", "failed"))
        follow_up = manager.submit(GOLDEN_JOB)
        await _until(lambda: follow_up.state in ("done", "failed"))
        consumers_alive = all(not task.done() for task in manager._consumers)
        await manager.close()
        closed = True
    finally:
        if not closed:
            await manager.close()
    return killed, follow_up, consumers_alive


def test_close_during_a_running_job_seals_it_as_cancelled(tmp_path):
    async def scenario():
        manager = JobManager(ServeConfig(spool_dir=tmp_path / "serve", workers=1))
        await manager.start()
        try:
            job = manager.submit(LONG_JOB)
            await _until(lambda: "scenario_started" in job.events_path.read_text())
            workers = list(manager._executor._processes)
        finally:
            await manager.close()
        for pid in workers:  # the abandoned run would stop at its next event
            os.kill(pid, signal.SIGKILL)
        return job

    job = asyncio.run(scenario())
    assert job.state == "failed" and job.error == "cancelled"
    assert job.sealed.is_set()
    events = _events(job)
    terminal = [event for event in events if event["event"] in ("job_done", "job_failed")]
    assert terminal == [events[-1]]
    assert events[-1]["event"] == "job_failed" and events[-1]["error"] == "cancelled"
    assert job.events_path.with_name(job.events_path.name + ".sealed").exists()


@pytest.mark.parametrize("kill_while_running", [True, False], ids=["running", "idle"])
def test_a_dead_pool_worker_fails_one_job_and_the_service_recovers(
    tmp_path, kill_while_running
):
    killed, follow_up, consumers_alive = asyncio.run(
        _run_after_worker_death(tmp_path, kill_while_running)
    )
    assert killed.state == "failed"
    assert killed.error.startswith("BrokenProcessPool")
    names = [event["event"] for event in _events(killed)]
    assert names[-1] == "job_failed"
    assert names.count("job_failed") == 1 and "job_done" not in names

    assert follow_up.state == "done", follow_up.error
    golden = json.loads((GOLDEN_DIR / "synthetic_random_smoke.json").read_text())
    assert follow_up.result["results"] == golden
    assert [event["event"] for event in _events(follow_up)][-1] == "job_done"
    assert consumers_alive


def test_one_dead_worker_fails_every_job_of_its_pool_and_replaces_it_once(tmp_path):
    """Two consumers each see the breakage; only the first swaps the pool."""

    async def scenario():
        manager = JobManager(ServeConfig(spool_dir=tmp_path / "serve", workers=2))
        await manager.start()
        pools = [manager._executor]
        build_pool = manager._new_pool

        def recording_new_pool():
            pools.append(build_pool())
            return pools[-1]

        manager._new_pool = recording_new_pool
        try:
            running = [manager.submit(LONG_JOB), manager.submit(_synthetic_job(800, 2))]
            await _until(
                lambda: all("scenario_started" in job.events_path.read_text() for job in running)
            )
            os.kill(next(iter(manager._executor._processes)), signal.SIGKILL)
            await _until(lambda: all(job.state in ("done", "failed") for job in running))
            follow_up = manager.submit(GOLDEN_JOB)
            await _until(lambda: follow_up.state in ("done", "failed"))
            consumers_alive = all(not task.done() for task in manager._consumers)
        finally:
            await manager.close()
        return running, follow_up, pools, consumers_alive

    running, follow_up, pools, consumers_alive = asyncio.run(scenario())
    assert [job.state for job in running] == ["failed", "failed"]
    assert all(job.error.startswith("BrokenProcessPool") for job in running)
    assert len(pools) == 2
    assert follow_up.state == "done", follow_up.error
    golden = json.loads((GOLDEN_DIR / "synthetic_random_smoke.json").read_text())
    assert follow_up.result["results"] == golden
    assert consumers_alive
