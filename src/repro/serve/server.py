"""The asyncio HTTP front end: routing, streaming, and lifecycle.

Endpoints (all JSON, ``Connection: close``):

* ``GET /scenarios`` — the registry with full parameter schemas;
* ``POST /jobs`` — submit ``{"scenario": id, "config": RunConfig.to_dict()}``;
  202 with the job record, 400 on validation errors, 429 + ``Retry-After``
  when the bounded queue is full.  The server forces ``jobs`` to 1 (a job
  runs serially in its pool worker) and uses its own store and no output
  file;
* ``GET /jobs/<id>`` — the job's state machine record; once ``done`` the
  full ``RunReport`` payload rides along as ``"report"``;
* ``GET /jobs/<id>/events`` — NDJSON progress stream (queue/lifecycle
  events from the server, ``scenario_*``/``setting_progress`` events from
  the worker), closed after the terminal event, which is relayed as soon as
  the server seals the job rather than at the next poll;
* ``GET /healthz`` — queue depth, per-state job counts, worker liveness
  and shared-store statistics.

Run with ``repro-ftes serve`` or ``python -m repro.serve``.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Callable, Dict, Optional

from repro.api.registry import list_scenarios
from repro.engine.store import DesignPointStore
from repro.serve.jobs import Job, JobManager, ServeConfig
from repro.serve.progress import TERMINAL_EVENTS, iter_new_lines
from repro.serve.protocol import (
    HttpError,
    Request,
    error_response,
    json_response,
    read_request,
    stream_head,
)

#: Longest wait between reads of the ``/events`` spool tail, seconds.  The
#: worker's progress events are relayed at this pace; the terminal event
#: wakes the stream at once (:attr:`Job.sealed`).
_EVENT_POLL_SECONDS = 0.05


class ServeApp:
    """One server instance: a :class:`JobManager` plus the HTTP routes."""

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        self.manager = JobManager(config)
        self._store_handle: Optional[DesignPointStore] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def run(
        self, ready: Optional[Callable[[str, int], None]] = None
    ) -> None:
        """Start the manager and serve until cancelled.

        ``ready(host, port)`` fires once the socket is bound — with
        ``port=0`` this is how callers learn the ephemeral port.
        """
        await self.manager.start()
        server = await asyncio.start_server(
            self.handle_client, self.config.host, self.config.port
        )
        try:
            sockets = server.sockets or []
            if ready is not None and sockets:
                bound = sockets[0].getsockname()
                ready(str(bound[0]), int(bound[1]))
            async with server:
                await server.serve_forever()
        finally:
            await self.manager.close()

    def _store(self) -> DesignPointStore:
        """Lazy stats handle on the shared store (no warm/persist here)."""
        if self._store_handle is None:
            self._store_handle = DesignPointStore(
                self.manager.store_dir, max_bytes=self.config.cache_size_mb * 1024 * 1024
            )
        return self._store_handle

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                request = await read_request(reader)
                if request is None:
                    return
                await self.dispatch(request, writer)
            except HttpError as error:
                writer.write(error_response(error))
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError):
                return
            except Exception as error:  # noqa: BLE001 - connection must answer, not die
                writer.write(
                    error_response(HttpError(500, f"{type(error).__name__}: {error}"))
                )
                await writer.drain()
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def dispatch(self, request: Request, writer: asyncio.StreamWriter) -> None:
        """Route one request; raises :class:`HttpError` for client errors."""
        segments = [part for part in request.path.split("/") if part]
        if request.path == "/healthz":
            self._require_method(request, "GET")
            writer.write(json_response(self.healthz_payload()))
        elif request.path == "/scenarios":
            self._require_method(request, "GET")
            writer.write(json_response(self.scenarios_payload()))
        elif segments[:1] == ["jobs"] and len(segments) == 1:
            self._require_method(request, "POST")
            job = self.manager.submit(request.json_body())
            writer.write(
                json_response(
                    self.job_payload(job),
                    202,
                    {"Location": f"/jobs/{job.job_id}"},
                )
            )
        elif segments[:1] == ["jobs"] and len(segments) == 2:
            self._require_method(request, "GET")
            job = self.manager.get(segments[1])
            writer.write(json_response(self.job_payload(job)))
        elif segments[:1] == ["jobs"] and len(segments) == 3 and segments[2] == "events":
            self._require_method(request, "GET")
            job = self.manager.get(segments[1])
            await self.stream_events(job, writer)
            return
        else:
            raise HttpError(404, f"no route for {request.method} {request.path}")
        await writer.drain()

    @staticmethod
    def _require_method(request: Request, method: str) -> None:
        if request.method != method:
            raise HttpError(405, f"{request.path} only supports {method}")

    # ------------------------------------------------------------------
    # payload builders
    # ------------------------------------------------------------------
    def scenarios_payload(self) -> Dict[str, Any]:
        return {
            "scenarios": [
                {
                    "id": spec.scenario_id,
                    "title": spec.title,
                    "description": spec.description,
                    "figure": spec.figure,
                    "schema": spec.schema(),
                    "params": [
                        {
                            "name": param.name,
                            "type": param.type,
                            "default": param.default,
                            "minimum": param.minimum,
                            "maximum": param.maximum,
                            "description": param.description,
                        }
                        for param in spec.params
                    ],
                }
                for spec in list_scenarios()
            ]
        }

    def job_payload(self, job: Job) -> Dict[str, Any]:
        payload = job.describe(self.manager.queue_position(job))
        if job.result is not None:
            payload["report"] = job.result
        return payload

    def healthz_payload(self) -> Dict[str, Any]:
        return {
            "status": "ok",
            "queue": {
                "depth": self.manager.state_counts()["queued"],
                "capacity": self.config.queue_size,
            },
            "jobs": self.manager.state_counts(),
            "workers": {"count": self.config.workers},
            "store": self._store().directory_stats(),
        }

    # ------------------------------------------------------------------
    # event streaming
    # ------------------------------------------------------------------
    async def stream_events(self, job: Job, writer: asyncio.StreamWriter) -> None:
        """Tail the job's spool as NDJSON until its terminal event.

        Replays the full history for late subscribers, then re-reads the
        spool whenever the job is sealed or :data:`_EVENT_POLL_SECONDS`
        pass, whichever comes first: the worker's progress events arrive
        through the file alone, but the server seals the spool itself, so
        the terminal event is relayed as soon as it is written.  The stream
        is delimited by connection close (no chunked framing) — clients read
        lines until EOF.
        """
        writer.write(stream_head())
        await writer.drain()
        offset = 0
        while True:
            lines, offset = iter_new_lines(job.events_path, offset)
            finished = False
            for line in lines:
                writer.write(line)
                if _is_terminal(line):
                    # A worker may append after the terminal event (it
                    # checked the seal just before the server set it);
                    # nothing past the terminal line is relayed.
                    finished = True
                    break
            await writer.drain()
            if finished:
                return
            try:
                await asyncio.wait_for(job.sealed.wait(), _EVENT_POLL_SECONDS)
            except asyncio.TimeoutError:
                pass


def _is_terminal(line: bytes) -> bool:
    try:
        event = json.loads(line)
    except json.JSONDecodeError:  # pragma: no cover - writer emits valid JSON
        return False
    return isinstance(event, dict) and event.get("event") in TERMINAL_EVENTS


def run_server(config: ServeConfig) -> int:
    """Blocking CLI entry: serve until interrupted; returns an exit code."""
    app = ServeApp(config)

    def announce(host: str, port: int) -> None:
        print(f"repro-ftes serve: listening on http://{host}:{port}", flush=True)
        print(
            f"repro-ftes serve: spool={app.manager.spool_dir} "
            f"store={app.manager.store_dir} workers={config.workers} "
            f"queue={config.queue_size}",
            flush=True,
        )

    try:
        asyncio.run(app.run(ready=announce))
    except KeyboardInterrupt:
        pass
    return 0
