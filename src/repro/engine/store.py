"""Persistent on-disk design-point store — warm starts across CLI runs.

The in-memory :class:`~repro.engine.engine.EvaluationEngine` dies with the
process, so every CLI invocation of the same sweep used to recompute every
design point from scratch.  The store persists an engine's memo tables to
disk, keyed by the **stable** content hash of the bound
``(application, profile)`` context (:func:`stable_context_fingerprint` —
``PYTHONHASHSEED``-independent, unlike the in-memory fingerprint), so a
second run of the same sweep starts warm.

Layout and lifecycle:

* One pickle file per context, named
  ``<sha256(salt | context)> .pkl`` under the store directory.  The salt
  folds in :data:`STORE_SCHEMA_VERSION` and the package version: any code
  change that could alter results makes old files unreachable (stale caches
  are *not found* rather than migrated — design points are cheap to recompute
  relative to the cost of a wrong hit).
* :meth:`DesignPointStore.warm` preloads a file's entries into an engine
  (marking them for ``disk_hits`` accounting); :meth:`DesignPointStore.persist`
  merges the engine's tables back (read-modify-write with an atomic
  ``os.replace``, so concurrent workers at worst lose entries, never corrupt
  files).
* A size cap is enforced after every persist: least-recently-used files
  (by mtime — ``warm`` touches files it reads) are evicted until the store
  fits.  The file just written is never evicted.

Pickle is appropriate here: the store is a local cache written and read only
by this package; it is not an interchange format and never loads data the
user did not put there.
"""

from __future__ import annotations

import os
import pickle
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from hashlib import sha256
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.engine import EvaluationEngine

#: Bump on any change to the persisted layout *or* to the numeric kernels'
#: result contract; old store files become unreachable (never migrated).
#: 2: fingerprints moved from repr()-based hashing to the type-tagged
#: canonical byte encoding (R001), renaming every context key.
#: 3: redundancy decisions are persisted without their schedules
#: (``schedule=None`` on disk, rebuilt on read by ``schedule_of``).
#: 4: exceedance/system keys and evaluator signatures no longer carry a bus
#: signature or a rounding precision.
#: 5: decision and optimization keys no longer carry an evaluator signature
#: (scheduler name, slack sharing, re-execution cap).
STORE_SCHEMA_VERSION = 5

#: Default size cap of a store directory (bytes).
DEFAULT_MAX_BYTES = 256 * 1024 * 1024

#: Engine attribute name per persisted memo table.
PERSISTED_CACHES = ("decisions", "optimizations", "exceedance", "system")

#: Tables whose values are :class:`~repro.core.redundancy.RedundancyDecision`
#: objects (or ``None``), persisted without their schedules.  In memory a
#: decision holds a schedule only once a search has read it through
#: ``schedule_of``; every other decision is schedule-less from the start.
DECISION_CACHES = ("decisions", "optimizations")


def code_version_salt() -> str:
    """Salt tying store files to the code that produced them."""
    import repro  # deferred: repro/__init__ defines __version__ after its imports

    version = getattr(repro, "__version__", "unknown")
    return f"schema={STORE_SCHEMA_VERSION};version={version}"


@dataclass
class StoreStats:
    """Counters describing one store's activity in this process."""

    files_loaded: int = 0
    entries_loaded: int = 0
    files_persisted: int = 0
    entries_persisted: int = 0
    evicted_files: int = 0
    invalid_files: int = 0
    single_flight_leads: int = 0
    single_flight_waits: int = 0


def _without_schedule(decision: Any, slim: Dict[int, Any]) -> Any:
    """``decision`` with ``schedule=None``; one copy per distinct object."""
    if decision is None or decision.schedule is None:
        return decision
    copy = slim.get(id(decision))
    if copy is None:
        copy = slim[id(decision)] = replace(decision, schedule=None)
    return copy


def _lock_owner_is_gone(path: Path) -> bool:
    """True only when the lock file names a pid that no longer exists.

    An empty or unparsable file (the leader sits between its ``O_EXCL``
    create and the pid write), a pid alive under another uid
    (``PermissionError``) and a live pid all count as held; such locks are
    broken by age alone.
    """
    if os.name != "posix":  # on Windows, signal 0 is CTRL_C_EVENT, not a probe
        return False
    try:
        pid = int(path.read_text())
    except (OSError, ValueError):
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    except OSError:  # PermissionError: alive under another uid
        pass
    return False


class DesignPointStore:
    """Directory-backed persistence for evaluation-engine memo tables."""

    def __init__(
        self,
        directory: Path,
        max_bytes: int = DEFAULT_MAX_BYTES,
        salt: Optional[str] = None,
    ) -> None:
        if max_bytes <= 0:
            raise ValueError(f"max_bytes must be > 0, got {max_bytes}")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.max_bytes = max_bytes
        self.salt = salt if salt is not None else code_version_salt()
        self.stats = StoreStats()
        self._sweep_stale_temp_files()

    # ------------------------------------------------------------------
    def context_key(self, engine: "EvaluationEngine") -> str:
        """Stable, salted file key for the engine's bound context."""
        return sha256(
            f"{self.salt}|{engine.stable_context()}".encode("utf-8")
        ).hexdigest()

    def path_for(self, engine: "EvaluationEngine") -> Path:
        return self.directory / f"{self.context_key(engine)}.pkl"

    # ------------------------------------------------------------------
    def warm(self, engine: "EvaluationEngine") -> int:
        """Preload a persisted context into ``engine``; returns entry count.

        Unreadable or mismatched files are treated as absent (and removed):
        a cache must never turn a corrupt byte into a wrong answer or a
        crash.
        """
        path = self.path_for(engine)
        payload = self._read(path)
        if payload is None:
            return 0
        loaded = 0
        for attribute in PERSISTED_CACHES:
            entries = payload["caches"].get(attribute)
            if entries:
                loaded += getattr(engine, attribute).load(entries)
        # Mark the file recently used so LRU eviction favours cold contexts.
        # The file may have been evicted by a concurrent process since we
        # read it — losing the touch is fine, crashing the sweep is not.
        try:
            os.utime(path)
        except OSError:
            pass
        self.stats.files_loaded += 1
        self.stats.entries_loaded += loaded
        return loaded

    def persist(self, engine: "EvaluationEngine") -> int:
        """Merge the engine's memo tables into the context's store file.

        Read-modify-write: entries already on disk are kept (union with the
        engine's, engine wins ties — the values are bit-identical anyway),
        the file is replaced atomically, and the store size cap is enforced
        afterwards.  Returns the number of entries written — 0, without
        touching the file, when the engine holds nothing beyond what
        :meth:`warm` loaded (every fully warm repeat run).

        Decisions are written without their schedules: each distinct
        decision object is replaced by one slim copy shared by both
        decision tables, exactly as pickle's memo shared the original.
        """
        if not any(
            getattr(engine, attribute).fresh_entries for attribute in PERSISTED_CACHES
        ):
            return 0
        path = self.path_for(engine)
        existing = self._read(path)
        caches: Dict[str, Dict[object, object]] = {}
        slim: Dict[int, Any] = {}
        total = 0
        for attribute in PERSISTED_CACHES:
            merged: Dict[object, object] = {}
            if existing is not None:
                merged.update(existing["caches"].get(attribute, {}))
            merged.update(getattr(engine, attribute).snapshot())
            if attribute in DECISION_CACHES:
                merged = {key: _without_schedule(value, slim) for key, value in merged.items()}
            caches[attribute] = merged
            total += len(merged)
        payload = {
            "salt": self.salt,
            "context": self.context_key(engine),
            "caches": caches,
        }
        self._write_atomic(path, payload)
        self.stats.files_persisted += 1
        self.stats.entries_persisted += total
        self._enforce_cap(keep=path)
        return total

    # ------------------------------------------------------------------
    # single-flight: one computer per context across concurrent jobs
    # ------------------------------------------------------------------
    @contextmanager
    def single_flight(
        self,
        engine: "EvaluationEngine",
        stale_after: float = 600.0,
        poll_interval: float = 0.05,
        timeout: Optional[float] = None,
    ) -> Iterator[bool]:
        """Cross-process leader election for one engine context.

        Two concurrent jobs bound to the *same* ``(application, profile)``
        context would each compute every design point and race their
        ``persist`` calls (safe, but wasteful — the whole computation runs
        twice).  ``single_flight`` elects one leader per context via an
        ``O_CREAT | O_EXCL`` lock file named after the context key:

        * the **leader** (``yield True``) holds the lock for the body and
          releases it afterwards — it should warm, evaluate and persist as
          usual;
        * a **follower** (``yield False``) blocks until the lock disappears
          and only then enters the body — warming *after* the leader's
          persist, so every design point the leader computed is served from
          disk and the follower computes nothing.

        The guard degrades, never deadlocks: a lock whose recorded pid no
        longer exists, or one older than ``stale_after`` seconds, is treated
        as an orphan of a dead leader and broken, and an optional
        ``timeout`` bounds the total wait — in every case the follower
        proceeds and at worst recomputes (bit-identical) design points,
        which is exactly the behavior without the guard.
        """
        lock_path = self.directory / f"{self.context_key(engine)}.lock"
        leader = self._try_lock(lock_path)
        if leader:
            self.stats.single_flight_leads += 1
        else:
            self.stats.single_flight_waits += 1
            self._await_lock_release(lock_path, stale_after, poll_interval, timeout)
        try:
            yield leader
        finally:
            if leader:
                self._discard(lock_path)

    def _try_lock(self, path: Path) -> bool:
        """Atomically create the lock file; False when another holder won."""
        try:
            handle = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        except OSError:
            # Unwritable store directory: behave as if the lock were free —
            # the guard is an optimization, never a correctness gate.
            return True
        with os.fdopen(handle, "w") as stream:
            stream.write(str(os.getpid()))
        return True

    def _await_lock_release(
        self,
        path: Path,
        stale_after: float,
        poll_interval: float,
        timeout: Optional[float],
    ) -> None:
        deadline = time.monotonic() + timeout if timeout is not None else None
        while True:
            try:
                age = time.time() - path.stat().st_mtime
            except OSError:
                return  # leader released (or lock broken by a peer)
            if age > stale_after or _lock_owner_is_gone(path):
                # The leader died without releasing; break its lock so the
                # context can make progress.  At worst two processes compute
                # the same (bit-identical) entries — the pre-guard behavior.
                self._discard(path)
                return
            if deadline is not None and time.monotonic() >= deadline:
                return
            time.sleep(poll_interval)

    # ------------------------------------------------------------------
    def directory_stats(self) -> Dict[str, int]:
        """Current on-disk footprint of the store (files and bytes).

        Counts only persisted context files; in-flight ``*.tmp`` and
        ``*.lock`` files are transient bookkeeping.  Used by the serve
        layer's ``/healthz`` endpoint.
        """
        files = 0
        total = 0
        for path in self.directory.glob("*.pkl"):
            try:
                total += path.stat().st_size
            except OSError:
                continue
            files += 1
        return {"files": files, "bytes": total, "max_bytes": self.max_bytes}

    # ------------------------------------------------------------------
    def _read(self, path: Path) -> Optional[Dict[str, object]]:
        try:
            with path.open("rb") as handle:
                payload = pickle.load(handle)
        except FileNotFoundError:
            return None
        except Exception:
            # Truncated write, foreign file, unpicklable after a refactor ...
            # a cache treats all of these as "not cached".
            self.stats.invalid_files += 1
            self._discard(path)
            return None
        if (
            not isinstance(payload, dict)
            or payload.get("salt") != self.salt
            or not isinstance(payload.get("caches"), dict)
        ):
            self.stats.invalid_files += 1
            self._discard(path)
            return None
        return payload

    def _write_atomic(self, path: Path, payload: Dict[str, object]) -> None:
        handle, temp_name = tempfile.mkstemp(
            dir=self.directory, prefix=path.stem, suffix=".tmp"
        )
        try:
            with os.fdopen(handle, "wb") as stream:
                pickle.dump(payload, stream, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(temp_name, path)
        except BaseException:
            self._discard(Path(temp_name))
            raise

    def _discard(self, path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass

    def _sweep_stale_temp_files(self) -> None:
        """Remove ``*.tmp`` orphans left by writers that died mid-write.

        A live ``_write_atomic`` temp file exists for milliseconds; anything
        older than an hour is an orphan from a killed process.  Run once per
        store construction so long-lived directories stay clean even when
        they never exceed the size cap.
        """
        cutoff = time.time() - 3600.0
        for path in self.directory.glob("*.tmp"):
            try:
                if path.stat().st_mtime < cutoff:
                    path.unlink()
            except OSError:
                continue

    def _enforce_cap(self, keep: Optional[Path] = None) -> None:
        """Evict least-recently-used files until the store fits the cap.

        Orphaned ``*.tmp`` files (an interrupted ``_write_atomic`` — SIGKILL,
        power loss) count toward the cap and are eviction candidates like any
        other file, so a crashing writer cannot grow the directory past the
        user's limit; live temp files are written and replaced within one
        call, so only stale ones are ever old enough to be evicted first.
        """
        files = []
        total = 0
        for pattern in ("*.pkl", "*.tmp"):
            for path in self.directory.glob(pattern):
                try:
                    stat = path.stat()
                except OSError:
                    continue
                files.append((stat.st_mtime, stat.st_size, path))
                total += stat.st_size
        if total <= self.max_bytes:
            return
        files.sort()  # oldest mtime first
        for _, size, path in files:
            if total <= self.max_bytes:
                break
            if keep is not None and path == keep:
                continue
            self._discard(path)
            self.stats.evicted_files += 1
            total -= size
