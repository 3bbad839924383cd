"""Output checks, the seeded serve mix, and the serve client's failure accounting."""

from __future__ import annotations

import copy
import json
import random
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from perfbench.checks import SERVE_POOL, OutputChecker, digest
from perfbench.serveload import drain
from perfbench.workloads import serve_jobs


def test_golden_check_fires_on_an_altered_payload():
    checker = OutputChecker()
    payload = copy.deepcopy(checker.goldens["fig6a"])
    assert checker.mismatch("fig6a", payload) is None
    series = payload["acceptance"]
    setting = next(iter(series))
    strategy = next(iter(series[setting]))
    series[setting][strategy] += 1.0
    assert "golden" in checker.mismatch("fig6a", payload)


def test_digest_check_fires_on_an_altered_payload():
    payload = {"strategies": {"OPT": {"cost": 12.0, "feasible": True}}}
    checker = OutputChecker(expected={"job": digest(payload)})
    assert checker.mismatch("job", copy.deepcopy(payload)) is None
    payload["strategies"]["OPT"]["cost"] = 12.5
    assert "digest" in checker.mismatch("job", payload)
    assert "no recorded digest" in checker.mismatch("unknown", payload)


def test_serve_mix_is_seeded_half_repeats_and_drawn_from_the_recorded_pool():
    jobs = serve_jobs(random.Random(5))
    assert jobs == serve_jobs(random.Random(5))
    assert jobs != serve_jobs(random.Random(6))
    assert sorted(jobs) == sorted(SERVE_POOL * 2)
    expected = OutputChecker().expected
    assert all(f"synthetic-random/n={size}/seed={seed}" in expected for size, seed in jobs)


class _StubServe(BaseHTTPRequestHandler):
    """Refuses the first submission with 429; the second job fails."""

    posts = 0

    def log_message(self, *args: object) -> None:
        pass

    def _reply(self, status: int, body: bytes, content_type: str = "application/json") -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_POST(self) -> None:
        self.rfile.read(int(self.headers.get("Content-Length", 0)))
        type(self).posts += 1
        if type(self).posts == 1:
            self._reply(429, b'{"error": "job queue is full"}')
        else:
            self._reply(202, b'{"id": "job-000000", "state": "queued"}')

    def do_GET(self) -> None:
        now = time.time()
        if self.path.endswith("/events"):
            events = [{"event": "job_queued"}, {"event": "job_started"},
                      {"event": "job_failed", "error": "boom"}]
            body = b"".join(json.dumps(event).encode() + b"\n" for event in events)
            self._reply(200, body, "application/x-ndjson")
        else:
            record = {"id": "job-000000", "state": "failed", "error": "boom",
                      "created_at": now, "started_at": now, "finished_at": now}
            self._reply(200, json.dumps(record).encode())


def test_client_counts_a_429_and_a_failed_job_as_failed_operations():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _StubServe)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        outcomes, _ = drain(server.server_address[1], [(20, 1), (20, 2)], lambda job, r: None, 1)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert [outcome.failed is not None for outcome in outcomes] == [True, True]
    assert [outcome.rejected for outcome in outcomes] == [True, False]
    assert outcomes[1].failed.startswith("job_failed")
