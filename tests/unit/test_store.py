"""Persistent design-point store: round trips, salting, eviction, corruption."""

from __future__ import annotations

import os
import pickle
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core.exceptions import ModelError
from repro.core.reexecution import ReExecutionOpt
from repro.engine import (
    DesignPointStore,
    EvaluationEngine,
    stable_context_fingerprint,
)
from repro.engine.store import STORE_SCHEMA_VERSION, code_version_salt
from repro.experiments.motivational import fig1_application, fig1_profile

SRC = Path(__file__).resolve().parents[2] / "src"

#: Child-process prelude: a store on ``sys.argv[1]`` and a fresh engine
#: bound to the Fig. 1 context (the ``context`` fixture's).
_CHILD_PRELUDE = (
    "import os, signal, sys, time\n"
    "from repro.engine import DesignPointStore, EvaluationEngine\n"
    "from repro.experiments.motivational import fig1_application, fig1_profile\n"
    "store = DesignPointStore(sys.argv[1])\n"
    "engine = EvaluationEngine(fig1_application(), fig1_profile())\n"
)


def _child(script: str, directory: Path, **popen_kwargs) -> subprocess.Popen:
    """Run ``_CHILD_PRELUDE + script`` in a fresh interpreter on ``directory``."""
    return subprocess.Popen(
        [sys.executable, "-c", _CHILD_PRELUDE + script, str(directory)],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        **popen_kwargs,
    )


@pytest.fixture
def context():
    return fig1_application(), fig1_profile()


def _engine_with_entries(context) -> EvaluationEngine:
    """A fresh engine with a few real memo entries in every SFP table."""
    application, profile = context
    engine = EvaluationEngine(application, profile)
    engine.node_exceedance((1.2e-5, 1.3e-5), 1)
    engine.node_exceedance((1.2e-5, 1.3e-5), 2)
    engine.system_failure((1e-9, 2e-9))
    return engine


# ----------------------------------------------------------------------
# warm / persist round trips
# ----------------------------------------------------------------------
def test_round_trip_restores_entries_and_counts_disk_hits(tmp_path, context):
    application, profile = context
    store = DesignPointStore(tmp_path)
    first = _engine_with_entries(context)
    assert store.persist(first) > 0

    second = EvaluationEngine(application, profile)
    loaded = DesignPointStore(tmp_path).warm(second)
    assert loaded == len(first.exceedance) + len(first.system)
    assert second.disk_hits == 0

    # Preloaded entries must serve (and count) hits without recomputation.
    value = second.node_exceedance((1.2e-5, 1.3e-5), 1)
    assert value == first.node_exceedance((1.2e-5, 1.3e-5), 1)
    assert second.disk_hits == 1
    assert second.exceedance.stats.misses == 0


def test_persisted_sfp_keys_have_the_pinned_shapes(tmp_path, context):
    """The on-disk key shapes, as literals: exceedance ``(probabilities, k)``,
    system the exceedance tuple itself.  A change to either must bump the
    schema version, which is pinned here too."""
    store = DesignPointStore(tmp_path)
    engine = _engine_with_entries(context)
    store.persist(engine)
    caches = store._read(store.path_for(engine))["caches"]
    assert set(caches["exceedance"]) == {((1.2e-5, 1.3e-5), 1), ((1.2e-5, 1.3e-5), 2)}
    assert set(caches["system"]) == {(1e-9, 2e-9)}
    assert STORE_SCHEMA_VERSION == 6


def test_a_file_with_the_former_no_fault_table_still_warms(tmp_path, context):
    """Store files written before the ``no_fault`` table was dropped carry
    it; warming reads the tables it knows by name and a persist drops it."""
    application, profile = context
    store = DesignPointStore(tmp_path)
    first = _engine_with_entries(context)
    store.persist(first)
    path = store.path_for(first)
    payload = store._read(path)
    payload["caches"]["no_fault"] = {((1.2e-5, 1.3e-5), 11): 0.99997500015}
    store._write_atomic(path, payload)

    second = EvaluationEngine(application, profile)
    assert store.warm(second) == len(first.exceedance) + len(first.system)
    second.node_exceedance((9e-6,), 3)
    store.persist(second)
    assert "no_fault" not in store._read(path)["caches"]


def test_round_trip_is_bit_identical_through_the_analysis_layer(tmp_path, context):
    """A warm engine must drive the full SFP/re-execution stack identically."""
    application, profile = context
    from repro.core.architecture import Architecture, Node
    from repro.core.mapping_model import ProcessMapping
    from repro.experiments.motivational import fig1_node_types

    n1, n2 = fig1_node_types()
    architecture = Architecture([Node("N1", n1, hardening=1), Node("N2", n2, hardening=1)])
    mapping = ProcessMapping({"P1": "N1", "P2": "N1", "P3": "N2", "P4": "N2"})

    cold_engine = EvaluationEngine(application, profile)
    cold = ReExecutionOpt().optimize(cold_engine, architecture, mapping)
    store = DesignPointStore(tmp_path)
    store.persist(cold_engine)

    warm_engine = EvaluationEngine(application, profile)
    store.warm(warm_engine)
    warm = ReExecutionOpt().optimize(warm_engine, architecture, mapping)
    assert warm == cold
    assert warm_engine.disk_hits > 0


def test_persist_merges_with_existing_file(tmp_path, context):
    application, profile = context
    store = DesignPointStore(tmp_path)
    first = _engine_with_entries(context)
    store.persist(first)

    # A second engine computing a *different* entry must not clobber the
    # first engine's entries on disk.
    second = EvaluationEngine(application, profile)
    second.node_exceedance((9e-6,), 3)
    store.persist(second)

    third = EvaluationEngine(application, profile)
    store.warm(third)
    assert ((1.2e-5, 1.3e-5), 1) in third.exceedance
    assert ((9e-6,), 3) in third.exceedance


def test_fully_warm_rerun_skips_the_rewrite(tmp_path, context, monkeypatch):
    """Nothing beyond the warmed entries: no read, no write, same bytes."""
    application, profile = context
    store = DesignPointStore(tmp_path)
    store.persist(_engine_with_entries(context))
    path = store.path_for(EvaluationEngine(application, profile))
    before = path.read_bytes()
    persisted = store.stats.files_persisted

    rerun = EvaluationEngine(application, profile)
    store.warm(rerun)
    # The rerun's lookups are all served by preloaded entries.
    rerun.node_exceedance((1.2e-5, 1.3e-5), 1)
    rerun.system_failure((1e-9, 2e-9))
    assert rerun.disk_hits == 2

    def no_io(*args, **kwargs):
        raise AssertionError("a no-op persist must not touch the store file")

    monkeypatch.setattr(store, "_read", no_io)
    monkeypatch.setattr(store, "_write_atomic", no_io)
    assert store.persist(rerun) == 0
    assert path.read_bytes() == before
    assert store.stats.files_persisted == persisted


def test_one_new_entry_still_merges_and_replaces(tmp_path, context):
    application, profile = context
    store = DesignPointStore(tmp_path)
    first = _engine_with_entries(context)
    store.persist(first)
    path = store.path_for(first)
    before = path.read_bytes()
    persisted = store.stats.files_persisted

    rerun = EvaluationEngine(application, profile)
    store.warm(rerun)
    rerun.node_exceedance((9e-6,), 3)
    written = store.persist(rerun)
    assert written == len(first.exceedance) + len(first.system) + 1
    assert store.stats.files_persisted == persisted + 1
    assert path.read_bytes() != before

    check = EvaluationEngine(application, profile)
    store.warm(check)
    assert ((1.2e-5, 1.3e-5), 1) in check.exceedance
    assert ((9e-6,), 3) in check.exceedance


def test_empty_engine_persists_nothing(tmp_path, context):
    application, profile = context
    store = DesignPointStore(tmp_path)
    assert store.persist(EvaluationEngine(application, profile)) == 0
    assert list(tmp_path.glob("*.pkl")) == []


# ----------------------------------------------------------------------
# salting / invalidation
# ----------------------------------------------------------------------
def test_salt_mismatch_makes_old_files_unreachable(tmp_path, context):
    application, profile = context
    old = DesignPointStore(tmp_path, salt="code-v1")
    old.persist(_engine_with_entries(context))

    new = DesignPointStore(tmp_path, salt="code-v2")
    engine = EvaluationEngine(application, profile)
    assert new.warm(engine) == 0  # hashed to a different file name
    assert len(engine.exceedance) == 0


def test_default_salt_folds_in_schema_and_version():
    salt = code_version_salt()
    assert "schema=" in salt and "version=" in salt


def test_corrupt_file_is_ignored_and_removed(tmp_path, context):
    application, profile = context
    store = DesignPointStore(tmp_path)
    store.persist(_engine_with_entries(context))
    path = store.path_for(EvaluationEngine(application, profile))
    path.write_bytes(b"not a pickle at all")

    engine = EvaluationEngine(application, profile)
    assert store.warm(engine) == 0
    assert not path.exists()
    assert store.stats.invalid_files == 1


def test_foreign_payload_is_rejected(tmp_path, context):
    application, profile = context
    store = DesignPointStore(tmp_path)
    path = store.path_for(EvaluationEngine(application, profile))
    path.write_bytes(pickle.dumps({"caches": "nope", "salt": "other"}))
    assert store.warm(EvaluationEngine(application, profile)) == 0
    assert not path.exists()


# ----------------------------------------------------------------------
# size cap / eviction
# ----------------------------------------------------------------------
def test_size_cap_evicts_least_recently_used(tmp_path, context):
    application, profile = context
    store = DesignPointStore(tmp_path, max_bytes=1)  # everything over cap
    store.persist(_engine_with_entries(context))
    # The just-written file is protected from its own eviction pass...
    assert store.path_for(EvaluationEngine(application, profile)).exists()

    # ...but an older unrelated file gets evicted.
    stale = tmp_path / ("f" * 64 + ".pkl")
    stale.write_bytes(b"x" * 4096)
    os.utime(stale, (1, 1))
    store.persist(_engine_with_entries(context))
    assert not stale.exists()
    assert store.stats.evicted_files >= 1


def test_rejects_nonpositive_cap(tmp_path):
    with pytest.raises(ValueError):
        DesignPointStore(tmp_path, max_bytes=0)


def test_warm_survives_concurrent_eviction_of_the_file(tmp_path, context, monkeypatch):
    """A racing process may unlink the file between our read and the LRU
    touch; warm() must shrug, not crash the sweep."""
    application, profile = context
    store = DesignPointStore(tmp_path)
    store.persist(_engine_with_entries(context))
    path = store.path_for(EvaluationEngine(application, profile))

    original_utime = os.utime

    def unlink_then_utime(target, *args, **kwargs):
        Path(target).unlink()  # simulate the concurrent eviction
        return original_utime(target, *args, **kwargs)

    monkeypatch.setattr(os, "utime", unlink_then_utime)
    engine = EvaluationEngine(application, profile)
    assert store.warm(engine) > 0  # entries still served from the read


def test_stale_tmp_orphans_are_swept_and_capped(tmp_path, context):
    """Interrupted writes must neither accumulate nor escape the size cap."""
    old_orphan = tmp_path / "deadbeef0000.tmp"
    old_orphan.write_bytes(b"x" * 1024)
    os.utime(old_orphan, (1, 1))  # ancient: swept at store construction
    store = DesignPointStore(tmp_path, max_bytes=1)
    assert not old_orphan.exists()

    fresh_orphan = tmp_path / "cafebabe0000.tmp"
    fresh_orphan.write_bytes(b"x" * 4096)
    os.utime(fresh_orphan, (os.path.getmtime(tmp_path) - 10,) * 2)
    store.persist(_engine_with_entries(context))  # cap pass runs after persist
    assert not fresh_orphan.exists()  # counted and evicted like any file


def test_writer_killed_between_dump_and_replace_keeps_the_old_file(tmp_path, context):
    store = DesignPointStore(tmp_path)
    persisted = store.persist(_engine_with_entries(context))
    crashing_writer = (
        "engine.node_exceedance((1.2e-5, 1.3e-5), 3)\n"
        "os.replace = lambda src, dst: os.kill(os.getpid(), signal.SIGKILL)\n"
        "store.persist(engine)\n"
    )
    with _child(crashing_writer, tmp_path) as writer:
        assert writer.wait() == -signal.SIGKILL
    (orphan,) = tmp_path.glob("*.tmp")
    assert orphan.stat().st_size > 0  # the dump finished, the replace never ran

    # The previous file still loads, with exactly its own entries.
    application, profile = context
    reader = DesignPointStore(tmp_path)
    assert reader.warm(EvaluationEngine(application, profile)) == persisted
    assert orphan.exists()  # a fresh temp file may be a live write

    past_cutoff = time.time() - 2 * 3600.0
    os.utime(orphan, (past_cutoff, past_cutoff))
    DesignPointStore(tmp_path)  # the sweep runs at construction
    assert not orphan.exists()


# ----------------------------------------------------------------------
# stable fingerprint
# ----------------------------------------------------------------------
def test_stable_fingerprint_is_deterministic_within_process(context):
    application, profile = context
    first = stable_context_fingerprint(application, profile)
    second = stable_context_fingerprint(fig1_application(), fig1_profile())
    assert first == second
    assert len(first) == 64 and int(first, 16) >= 0


#: Context digests recorded before the encoder was flattened: the store's
#: file names derive from them, so a store written by an older build must
#: keep warming.
FIG1_CONTEXT_DIGEST = "97ba9e7a1b8b6a69e1430fe6a50dbbcdabd2d368a9a6a0162c12e44df27a6959"
SMOKE_CONTEXT_DIGEST = "bfcdf08d05ac6bcffcbeda296abc7a1a72254b1d545440564769e792afd6212b"


def test_stable_fingerprint_pins_the_fig1_digest(context):
    assert stable_context_fingerprint(*context) == FIG1_CONTEXT_DIGEST


def test_stable_fingerprint_pins_the_synthetic_random_smoke_digest():
    """The context of ``synthetic-random`` with n_processes=10, seed=3."""
    from repro.api.scenarios_synthetic import FAMILY_HPD, FAMILY_SER
    from repro.experiments.synthetic import build_platform
    from repro.generator.benchmark import BenchmarkConfig, generate_benchmark

    benchmark = generate_benchmark(3, BenchmarkConfig(n_processes=10), name="synthetic_random_3")
    _, profile = build_platform(
        benchmark, ser_per_cycle=FAMILY_SER, hardening_performance_degradation=FAMILY_HPD
    )
    assert stable_context_fingerprint(benchmark.application, profile) == SMOKE_CONTEXT_DIGEST


def test_stable_fingerprint_tracks_profile_content(context):
    application, profile = context
    profile.add_entry("P1", "N1", 1, wcet=123.0, failure_probability=0.5)
    assert stable_context_fingerprint(application, profile) != FIG1_CONTEXT_DIGEST


def test_in_place_profile_edit_after_warm_raises_instead_of_poisoning_the_store(
    tmp_path, context
):
    """The store files an engine's results under the context key taken when
    it was bound.  An in-place WCET edit after ``warm`` would file results of
    the edited profile under the unedited context's key, where a later run on
    the unedited profile reads them from disk; binding freezes the profile,
    so the edit raises and the store only ever holds the bound content."""
    application, profile = context
    store = DesignPointStore(tmp_path)
    engine = EvaluationEngine(application, profile)
    store.warm(engine)
    entry = profile.entries()[("P1", "N1", 1)]
    with pytest.raises(ModelError, match="ExecutionProfile is read-only"):
        profile.add_entry("P1", "N1", 1, entry.wcet * 10, entry.failure_probability)
    assert profile.entries()[("P1", "N1", 1)] == entry
    assert stable_context_fingerprint(application, profile) == FIG1_CONTEXT_DIGEST


def test_stable_fingerprint_survives_hash_randomization():
    """PYTHONHASHSEED must not leak into persisted keys (unlike builtin hash)."""
    script = (
        "from repro.experiments.motivational import fig1_application, fig1_profile\n"
        "from repro.engine import stable_context_fingerprint\n"
        "print(stable_context_fingerprint(fig1_application(), fig1_profile()))\n"
    )
    digests = set()
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(SRC))
        output = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
        digests.add(output)
    assert len(digests) == 1


def test_different_contexts_hash_to_different_files(tmp_path, context):
    application, profile = context
    from repro.experiments.motivational import fig3_application, fig3_profile

    store = DesignPointStore(tmp_path)
    a = store.path_for(EvaluationEngine(application, profile))
    b = store.path_for(EvaluationEngine(fig3_application(), fig3_profile()))
    assert a != b


# ----------------------------------------------------------------------
# single-flight guard (one computer per context across concurrent jobs)
# ----------------------------------------------------------------------
def _lock_path(store: DesignPointStore, engine: EvaluationEngine) -> Path:
    return store.directory / f"{store.context_key(engine)}.lock"


def test_single_flight_leader_holds_and_releases_the_lock(tmp_path, context):
    application, profile = context
    store = DesignPointStore(tmp_path)
    engine = EvaluationEngine(application, profile)
    with store.single_flight(engine) as leader:
        assert leader is True
        assert _lock_path(store, engine).exists()
    assert not _lock_path(store, engine).exists()
    assert store.stats.single_flight_leads == 1
    assert store.stats.single_flight_waits == 0


def test_single_flight_releases_the_lock_when_the_body_raises(tmp_path, context):
    application, profile = context
    store = DesignPointStore(tmp_path)
    engine = EvaluationEngine(application, profile)
    with pytest.raises(RuntimeError):
        with store.single_flight(engine):
            raise RuntimeError("leader died mid-flight")
    assert not _lock_path(store, engine).exists()


def test_single_flight_follower_waits_until_the_leader_releases(tmp_path, context):
    import threading
    import time as time_module

    application, profile = context
    store = DesignPointStore(tmp_path)
    engine = EvaluationEngine(application, profile)
    lock = _lock_path(store, engine)
    lock.write_text(str(os.getpid()))  # a live foreign leader

    def release():
        time_module.sleep(0.3)
        lock.unlink()

    thread = threading.Thread(target=release)
    thread.start()
    start = time_module.monotonic()
    with store.single_flight(engine) as leader:
        waited = time_module.monotonic() - start
        assert leader is False
    thread.join()
    assert waited >= 0.25
    assert store.stats.single_flight_waits == 1
    # A follower never deletes the leader's lock on exit.
    assert not lock.exists()


def test_single_flight_breaks_stale_locks(tmp_path, context):
    application, profile = context
    store = DesignPointStore(tmp_path)
    engine = EvaluationEngine(application, profile)
    lock = _lock_path(store, engine)
    lock.write_text(str(os.getpid()))  # alive, so only the age rule applies
    ancient = os.path.getmtime(lock) - 10_000.0
    os.utime(lock, (ancient, ancient))
    with store.single_flight(engine, stale_after=600.0) as leader:
        # The orphaned lock of a dead leader is broken and the caller
        # proceeds (as a follower — at worst it recomputes).
        assert leader is False
    assert not lock.exists()


@pytest.mark.parametrize(
    "content, kill_error",
    [
        pytest.param("{pid}", None, id="live-pid"),
        pytest.param("", None, id="empty"),
        pytest.param("not-a-pid", None, id="unparsable"),
        pytest.param("{pid}", PermissionError, id="other-uid"),
    ],
)
def test_single_flight_timeout_bounds_the_wait(
    tmp_path, context, monkeypatch, content, kill_error
):
    """A fresh lock not proven orphaned (its pid may be alive) is waited on."""
    if kill_error is not None:

        def kill(pid, sig):
            raise kill_error(f"not allowed to signal {pid}")

        monkeypatch.setattr(os, "kill", kill)
    application, profile = context
    store = DesignPointStore(tmp_path)
    engine = EvaluationEngine(application, profile)
    lock = _lock_path(store, engine)
    lock.write_text(content.format(pid=os.getpid()))  # never released
    start = time.monotonic()
    with store.single_flight(engine, poll_interval=0.02, timeout=0.2) as leader:
        waited = time.monotonic() - start
        assert leader is False
    assert 0.2 <= waited < 5.0
    assert lock.exists()  # fresh foreign lock is left alone


def test_single_flight_breaks_the_lock_of_a_killed_leader(tmp_path, context):
    leader_script = (
        "with store.single_flight(engine) as leader:\n"
        "    print(leader, flush=True)\n"
        "    time.sleep(600)\n"
    )
    with _child(leader_script, tmp_path, stdout=subprocess.PIPE, text=True) as leader:
        try:
            elected = leader.stdout.readline().strip()
        finally:
            leader.kill()
    # Leaving the ``with`` reaped the leader, so its pid no longer exists.
    assert elected == "True"
    application, profile = context
    store = DesignPointStore(tmp_path)
    engine = EvaluationEngine(application, profile)
    lock = _lock_path(store, engine)
    assert lock.read_text() == str(leader.pid)
    start = time.monotonic()
    with store.single_flight(engine, poll_interval=5.0, timeout=30.0) as is_leader:
        waited = time.monotonic() - start
        assert is_leader is False
        assert store.warm(engine) == 0  # the leader died before persisting
        engine.node_exceedance((1.2e-5, 1.3e-5), 1)
        assert store.persist(engine) > 0  # so the follower computes
    assert waited < 5.0  # broken within one poll
    assert not lock.exists()


def test_single_flight_follower_serves_the_leaders_points_from_disk(tmp_path, context):
    """The serve-layer contract: follower warms after the leader's persist."""
    application, profile = context
    store = DesignPointStore(tmp_path)
    leader_engine = _engine_with_entries(context)
    with store.single_flight(leader_engine) as leader:
        assert leader is True
        store.persist(leader_engine)

    follower_engine = EvaluationEngine(application, profile)
    follower_store = DesignPointStore(tmp_path)
    with follower_store.single_flight(follower_engine):
        loaded = follower_store.warm(follower_engine)
    assert loaded > 0
    value = follower_engine.node_exceedance((1.2e-5, 1.3e-5), 1)
    assert value == leader_engine.node_exceedance((1.2e-5, 1.3e-5), 1)
    assert follower_engine.exceedance.stats.misses == 0


# ----------------------------------------------------------------------
# directory stats and lock-file hygiene
# ----------------------------------------------------------------------
def test_directory_stats_counts_persisted_files_only(tmp_path, context):
    store = DesignPointStore(tmp_path)
    assert store.directory_stats() == {
        "files": 0,
        "bytes": 0,
        "max_bytes": store.max_bytes,
    }
    engine = _engine_with_entries(context)
    store.persist(engine)
    (tmp_path / "in-flight.tmp").write_bytes(b"x" * 64)
    (tmp_path / "abc.lock").write_text("123")
    stats = store.directory_stats()
    assert stats["files"] == 1
    assert stats["bytes"] == store.path_for(engine).stat().st_size
    assert stats["max_bytes"] == store.max_bytes


def test_eviction_never_touches_lock_files(tmp_path, context):
    store = DesignPointStore(tmp_path, max_bytes=1)  # evict everything
    lock = tmp_path / "deadbeef.lock"
    lock.write_text("123")
    engine = _engine_with_entries(context)
    store.persist(engine)
    # The freshly written file is exempt; a second persist of a different
    # cap-busting store must still leave the lock alone.
    assert lock.exists()
