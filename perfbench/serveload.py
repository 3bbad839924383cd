"""A live ``repro.serve`` process and the closed-loop client that drives it.

:class:`ServerProcess` starts ``repro.serve`` (through
:mod:`perfbench.serve_child`, which takes the server's process group down
when this process dies) on an ephemeral port with a fresh spool (and so a
fresh shared store), times start-up until ``/healthz`` answers 200, reports
the peak resident memory of the server and its pool workers, and stops the
whole process group and reaps it.  :func:`stop_descendants` kills and reaps
every process the benchmark started, on the way out of any run.

:func:`drain` pushes a job list through the server from ``clients`` threads
in a closed loop: each client submits ``POST /jobs``, streams
``/jobs/<id>/events`` to the terminal event, then fetches ``GET /jobs/<id>``
and checks the report's ``results``.  A 429 refusal, a ``job_failed``
terminal event and an output mismatch all count as failed operations.
"""

from __future__ import annotations

import ctypes
import json
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from http.client import HTTPConnection
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: One serve job: ``(n_processes, generator seed)`` of a ``synthetic-random`` run.
Job = Tuple[int, int]

#: The job that makes a fresh server fork its pool worker before a drain; a
#: one-process application no drain contains.
POOL_START_JOB: Job = (1, 1)


def job_payload(job: Job) -> Dict[str, Any]:
    n_processes, seed = job
    return {
        "scenario": "synthetic-random",
        "config": {
            "preset": "fast",
            "scenario_params": {"n_processes": n_processes, "seed": seed},
        },
    }


def request(
    port: int, method: str, path: str, body: Optional[Dict[str, Any]] = None, timeout: float = 60.0
) -> Tuple[int, bytes]:
    connection = HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        connection.request(method, path, body=json.dumps(body) if body is not None else None)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


class ServerProcess:
    """One ``repro.serve`` process (one pool worker) in its own process group."""

    def __init__(self, root: Path, spool_dir: Path) -> None:
        self.root = root
        self.spool_dir = spool_dir
        self.process: Optional[subprocess.Popen] = None
        self.port = 0
        self._lines: List[str] = []
        self._lifeline = -1

    def start(self, timeout: float = 60.0) -> float:
        """Launch the server; returns seconds until ``/healthz`` returned 200."""
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        self.spool_dir.mkdir(parents=True)
        adopt_orphans()
        lifeline, self._lifeline = os.pipe()
        started = time.perf_counter()
        try:
            self.process = subprocess.Popen(
                [
                    sys.executable, "-m", "perfbench.serve_child", str(lifeline),
                    "--port", "0", "--workers", "1", "--spool-dir", str(self.spool_dir),
                ],
                cwd=self.root,
                env=env,
                stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT,
                text=True,
                start_new_session=True,
                pass_fds=(lifeline,),
            )
        finally:
            os.close(lifeline)
        announced = threading.Event()
        threading.Thread(target=self._read_output, args=(announced,), daemon=True).start()
        if not announced.wait(timeout):
            raise RuntimeError(f"server did not announce a port: {self._lines}")
        deadline = started + timeout
        while time.perf_counter() < deadline:
            try:
                status, _ = request(self.port, "GET", "/healthz", timeout=5.0)
            except OSError:
                status = 0
            if status == 200:
                return time.perf_counter() - started
            time.sleep(0.005)
        raise RuntimeError("server never answered /healthz with 200")

    def start_pool(self, timeout: float = 60.0) -> None:
        """Run :data:`POOL_START_JOB` to completion so the pool worker exists.

        ``repro.serve`` forks its pool worker when the first job reaches
        the pool, and the worker inherits every client socket the server
        has open at that moment; the server's close of such a socket then
        sends no end-of-file.  So a drain starts, untimed fork included,
        only once the worker exists, and this job is followed by polling
        ``GET /jobs/<id>``, whose responses carry their length.
        """
        status, body = request(self.port, "POST", "/jobs", job_payload(POOL_START_JOB))
        if status != 202:
            raise RuntimeError(f"pool start job refused with {status}: {body[:200]!r}")
        job_id = json.loads(body)["id"]
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            status, body = request(self.port, "GET", f"/jobs/{job_id}")
            state = json.loads(body).get("state") if status == 200 else None
            if state == "done":
                return
            if state == "failed":
                raise RuntimeError(f"pool start job failed: {json.loads(body).get('error')}")
            time.sleep(0.01)
        raise RuntimeError("pool start job did not finish")

    def _read_output(self, announced: threading.Event) -> None:
        assert self.process is not None and self.process.stdout is not None
        for line in self.process.stdout:
            self._lines.append(line.rstrip("\n"))
            if "listening on http://" in line and not announced.is_set():
                self.port = int(line.rsplit(":", 1)[1])
                announced.set()

    def pids(self) -> List[int]:
        """The server and its descendants (the job pool workers)."""
        if self.process is None:
            return []
        found = [self.process.pid]
        for pid in found:
            for task in Path(f"/proc/{pid}/task").glob("*"):
                try:
                    found.extend(int(child) for child in (task / "children").read_text().split())
                except OSError:
                    continue
        return found

    def peak_rss_mb(self) -> float:
        """Sum of the peak resident set (VmHWM) of the server and its workers."""
        total_kb = 0
        for pid in self.pids():
            try:
                status = Path(f"/proc/{pid}/status").read_text()
            except OSError:
                continue
            for line in status.splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
        return total_kb / 1024.0

    def stop(self) -> None:
        """SIGINT the server, then kill and reap whatever is left of its group."""
        process = self.process
        if process is None:
            return
        self.process = None
        if process.poll() is None:
            process.send_signal(signal.SIGINT)
            try:
                process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                pass
        os.close(self._lifeline)
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        process.wait()
        reap_group(process.pid)

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()


#: ``prctl`` option that makes orphaned descendants children of the caller.
PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Become the reaper of this process's orphaned descendants (Linux).

    The server's pool workers are then this process's children once the
    server has died, so :func:`reap_group` can wait for each of them.
    """
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER) failed")


def reap_group(pgid: int) -> None:
    """Wait for every process of the (killed) group ``pgid`` to end."""
    while True:
        try:
            os.waitpid(-pgid, 0)
        except ChildProcessError:
            return


def descendants(pid: int) -> List[int]:
    """Every living descendant of ``pid`` (Linux ``/proc``)."""
    found: List[int] = []
    parents = [pid]
    while parents:
        parent = parents.pop()
        for task in Path(f"/proc/{parent}/task").glob("*"):
            try:
                children = [int(child) for child in (task / "children").read_text().split()]
            except OSError:
                continue
            found.extend(children)
            parents.extend(children)
    return found


def stop_descendants() -> None:
    """SIGKILL every descendant of this process and reap them all.

    The way out of a run whatever it was doing: a signal handler calls it
    before it unwinds, since a handler can run in the middle of starting or
    stopping a server, where :meth:`ServerProcess.stop` cannot finish.  As
    the child subreaper (:func:`adopt_orphans`), this process reaps the pool
    workers of a server that died first.  It returns once it has no child.
    """
    while True:
        for pid in descendants(os.getpid()):
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return


@dataclass
class JobOutcome:
    """What the client saw for one submitted job."""

    job: Job
    failed: Optional[str] = None
    rejected: bool = False
    submit_s: float = 0.0
    latency_s: Optional[float] = None
    queue_wait_s: Optional[float] = None
    exec_s: Optional[float] = None
    delivery_s: Optional[float] = None
    warm: bool = False


def run_job(port: int, job: Job, check: Callable[[Job, Any], Optional[str]]) -> JobOutcome:
    """Submit one job, follow its event stream, fetch and check its report."""
    outcome = JobOutcome(job)
    began = time.perf_counter()
    status, body = request(port, "POST", "/jobs", job_payload(job))
    outcome.submit_s = time.perf_counter() - began
    if status == 429:
        outcome.rejected = True
        outcome.failed = "refused with 429"
        return outcome
    if status != 202:
        outcome.failed = f"POST /jobs returned {status}: {body[:200]!r}"
        return outcome
    job_id = json.loads(body)["id"]
    terminal, terminal_wall = _follow_events(port, job_id)
    outcome.latency_s = time.perf_counter() - began
    status, body = request(port, "GET", f"/jobs/{job_id}")
    if status != 200:
        outcome.failed = f"GET /jobs/{job_id} returned {status}"
        return outcome
    record = json.loads(body)
    if record.get("started_at") is not None and record.get("finished_at") is not None:
        outcome.queue_wait_s = record["started_at"] - record["created_at"]
        outcome.exec_s = record["finished_at"] - record["started_at"]
        outcome.delivery_s = terminal_wall - record["finished_at"]
    if terminal != "job_done" or record.get("state") != "done":
        outcome.failed = f"{terminal or 'no terminal event'}: {record.get('error')}"
        return outcome
    report = record["report"]
    outcome.warm = report["cache"].get("points_computed", 0) == 0
    outcome.failed = check(job, report["results"])
    return outcome


def _follow_events(port: int, job_id: str) -> Tuple[str, float]:
    """Read the NDJSON stream up to the terminal event; that event and its wall time.

    The server closes the stream after the terminal event, but its end-of-file
    does not arrive while a pool worker holds a copy of the socket, so the
    client stops at the event itself.
    """
    connection = HTTPConnection("127.0.0.1", port, timeout=60.0)
    try:
        connection.request("GET", f"/jobs/{job_id}/events")
        response = connection.getresponse()
        for raw in response:
            if not raw.strip():
                continue
            event = json.loads(raw).get("event", "")
            if event in ("job_done", "job_failed"):
                return event, time.time()
    finally:
        connection.close()
    return "", 0.0


def drain(
    port: int,
    jobs: Sequence[Job],
    check: Callable[[Job, Any], Optional[str]],
    clients: int = 2,
) -> Tuple[List[JobOutcome], float]:
    """Run ``jobs`` through the server from ``clients`` closed-loop threads.

    Returns the outcomes in job-list order and the wall-clock seconds from
    the first submission to the last completion.
    """
    outcomes: List[Optional[JobOutcome]] = [None] * len(jobs)
    cursor = iter(range(len(jobs)))
    lock = threading.Lock()

    def client() -> None:
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            try:
                outcomes[index] = run_job(port, jobs[index], check)
            except Exception as error:  # noqa: BLE001 - reported as a failed job
                outcomes[index] = JobOutcome(jobs[index], failed=f"{type(error).__name__}: {error}")

    # Daemon threads: a client stuck on a dead server never holds up exit.
    threads = [threading.Thread(target=client, daemon=True) for _ in range(clients)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    return [outcome for outcome in outcomes if outcome is not None], elapsed
