"""Per-job NDJSON event spools bridging pool workers and the async server.

A job's progress events are produced inside a ``ProcessPoolExecutor``
worker (the :data:`~repro.api.session.ProgressCallback` threaded through
``Session`` → ``AcceptanceExperiment``) but consumed by the asyncio server
process streaming ``GET /jobs/<id>/events``.  The bridge is a plain
append-only file per job: the worker's :class:`EventWriter` appends one
canonicalized JSON line per event, and the server tails the file with
:func:`iter_new_lines`.  Between reads the stream waits on the job's
``sealed`` event with a short timeout: worker events are picked up at the
next timeout, while the terminal event, which the server writes itself,
wakes the stream at once.

A file — not a pipe or queue — is deliberate: it is picklable-by-path
(only the path string crosses the pool boundary, satisfying R006/R007 by
construction), it survives worker crashes with the partial event history
intact, and late stream subscribers replay the full history for free.

A spool is *sealed* when the server decides a job's outcome: before it
appends the terminal event it creates a ``<spool>.sealed`` sentinel, and
every later :meth:`EventWriter.emit` raises :class:`SpoolSealed`.  A
timed-out or cancelled job's worker therefore stops at its next progress
event instead of computing on (and appending) after its ``job_failed``.
Every job a consumer takes from the queue is sealed exactly once, whichever
way it ends.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Any, Dict, Iterator, Tuple

from repro.serve.protocol import event_line

#: Event names that end a job's stream; the server closes ``/events``
#: connections after relaying one of these.
TERMINAL_EVENTS = frozenset({"job_done", "job_failed"})


class SpoolSealed(RuntimeError):
    """Raised by :meth:`EventWriter.emit` once the job's outcome is decided."""


class EventWriter:
    """Append canonicalized NDJSON events to one job's spool file.

    Opens the file per event instead of holding a handle: the writer is
    constructed fresh inside each pool worker from a path string, and a
    held descriptor would be un-picklable state for nothing — job event
    rates are a handful per optimizer round, not a hot path.  Each event is
    written with a single ``os.write`` so concurrent server-side appends
    (``job_queued`` / ``job_done``) never interleave mid-line.
    """

    def __init__(self, path: Path) -> None:
        self.path = Path(path)
        self.sealed_path = self.path.with_name(self.path.name + ".sealed")

    def emit(self, event: Dict[str, Any]) -> None:
        """Append one event; matches :data:`ProgressCallback`'s signature.

        Raises :class:`SpoolSealed` once the spool is sealed.
        """
        if self.sealed_path.exists():
            raise SpoolSealed(f"event spool {self.path.name} is sealed")
        self._append(event)

    def seal(self, terminal_event: Dict[str, Any]) -> None:
        """Create the sentinel, then append the job's terminal event."""
        self.sealed_path.touch()
        self._append(terminal_event)

    def _append(self, event: Dict[str, Any]) -> None:
        line = event_line(event)
        descriptor = os.open(
            self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
        )
        try:
            os.write(descriptor, line)
        finally:
            os.close(descriptor)


def iter_new_lines(path: Path, offset: int) -> Tuple[Iterator[bytes], int]:
    """Complete (newline-terminated) spool lines past ``offset``.

    Returns the lines and the new offset to resume from.  A partially
    written trailing line is left for the next poll — the single-write
    contract of :class:`EventWriter` makes this a non-event in practice,
    but the tail loop must never relay half a JSON document.
    """
    try:
        with open(path, "rb") as handle:
            handle.seek(offset)
            chunk = handle.read()
    except FileNotFoundError:
        return iter(()), offset
    if not chunk:
        return iter(()), offset
    complete, separator, _partial = chunk.rpartition(b"\n")
    if not separator:
        return iter(()), offset
    lines = [line + b"\n" for line in complete.split(b"\n")]
    return iter(lines), offset + len(complete) + 1
