"""Unit tests for the runtime determinism sanitizer.

The sanitizer only records events whose call stack contains a ``repro.*``
frame (third-party and interpreter-internal noise is dropped), so the tests
route triggering calls through a synthetic module registered under the
``repro.`` namespace.
"""

from __future__ import annotations

import pickle
import sys
import types
from concurrent.futures import ProcessPoolExecutor
from decimal import Decimal

import numpy as np
import pytest

from repro.api.report import iter_non_json_native
from repro.lint.sanitizer import (
    SANITIZE_ENV,
    DeterminismSanitizer,
    active_sanitizer,
    env_requests_sanitizer,
    install_from_env,
)

# ----------------------------------------------------------------------
# a call trampoline whose frame claims a repro.* module
# ----------------------------------------------------------------------
_FIXTURE = types.ModuleType("repro._sanitizer_fixture")
sys.modules["repro._sanitizer_fixture"] = _FIXTURE
exec(
    compile(
        "def call(fn, *args, **kwargs):\n    return fn(*args, **kwargs)\n",
        "<repro-sanitizer-fixture>",
        "exec",
    ),
    _FIXTURE.__dict__,
)
#: Runs ``fn`` one repro-frame deep, so the sanitizer attributes the event.
from_repro = _FIXTURE.call


def rules_of(sanitizer: DeterminismSanitizer) -> set:
    return {violation.rule for violation in sanitizer.violations}


class TestLifecycle:
    def test_install_uninstall_restores_patches(self):
        original = np.random.default_rng
        with DeterminismSanitizer() as sanitizer:
            assert active_sanitizer() is sanitizer
            assert np.random.default_rng is not original
        assert active_sanitizer() is None
        assert np.random.default_rng is original

    def test_second_install_is_rejected(self):
        with DeterminismSanitizer():
            with pytest.raises(RuntimeError):
                DeterminismSanitizer().install()

    def test_env_opt_in_parsing(self, monkeypatch):
        monkeypatch.delenv(SANITIZE_ENV, raising=False)
        assert not env_requests_sanitizer()
        monkeypatch.setenv(SANITIZE_ENV, "1")
        assert env_requests_sanitizer()
        monkeypatch.setenv(SANITIZE_ENV, "0")
        assert not env_requests_sanitizer()

    def test_install_from_env_needs_the_opt_in(self, monkeypatch):
        monkeypatch.delenv(SANITIZE_ENV, raising=False)
        assert install_from_env() is None
        assert active_sanitizer() is None

    def test_install_from_env_installs_once(self, monkeypatch):
        monkeypatch.setenv(SANITIZE_ENV, "1")
        sanitizer = install_from_env()
        try:
            assert sanitizer is not None
            assert active_sanitizer() is sanitizer
            # A fork-started worker inherits the parent's sanitizer: keep it.
            assert install_from_env() is None
            assert active_sanitizer() is sanitizer
        finally:
            sanitizer.uninstall()
        assert active_sanitizer() is None

    def test_experiment_pool_initializer_installs_from_env(self, monkeypatch):
        from repro.experiments import synthetic

        monkeypatch.setattr(synthetic, "_WORKER_STATE", {})
        monkeypatch.setenv(SANITIZE_ENV, "1")
        synthetic._init_worker([], None, None, 0)
        sanitizer = active_sanitizer()
        assert sanitizer is not None
        sanitizer.uninstall()

    def test_serve_pool_initializer_opts_in_on_sanitize(self, monkeypatch):
        from repro.serve import jobs

        monkeypatch.delenv(SANITIZE_ENV, raising=False)
        jobs._init_serve_worker(True)
        sanitizer = active_sanitizer()
        assert sanitizer is not None
        sanitizer.uninstall()


class TestSeededRng:
    def test_seedless_default_rng_records_r004(self):
        with DeterminismSanitizer() as sanitizer:
            from_repro(np.random.default_rng)
        assert rules_of(sanitizer) == {"R004"}
        (violation,) = sanitizer.violations
        assert "seedless numpy.random.default_rng()" in violation.message
        assert violation.module == "repro._sanitizer_fixture"

    def test_seeded_default_rng_is_silent(self):
        with DeterminismSanitizer() as sanitizer:
            rng = from_repro(np.random.default_rng, 42)
            from_repro(rng.random)
        assert sanitizer.violations == []

    def test_global_state_call_records_r004(self):
        import random

        with DeterminismSanitizer() as sanitizer:
            from_repro(random.random)
        assert rules_of(sanitizer) == {"R004"}
        assert "random.random()" in sanitizer.violations[0].message

    def test_events_without_repro_frame_are_dropped(self):
        with DeterminismSanitizer() as sanitizer:
            np.random.default_rng()  # no repro.* frame on this stack
        assert sanitizer.violations == []


class TestPoolBoundary:
    def test_unpicklable_submission_records_r006(self):
        with DeterminismSanitizer() as sanitizer:
            with ProcessPoolExecutor(max_workers=1) as pool:
                future = from_repro(pool.submit, len, [lambda: None])
                # Local callables fail with AttributeError, other types
                # with PicklingError — either way the task dies at the
                # boundary while the sanitizer records the hazard.
                with pytest.raises((pickle.PicklingError, AttributeError)):
                    future.result()
        assert "R006" in rules_of(sanitizer)
        assert sanitizer.counters["unpicklable_pool_payloads"] == 1

    def test_shared_handle_in_submission_records_r006(self):
        from repro.engine.cache import MemoCache

        with DeterminismSanitizer() as sanitizer:
            with ProcessPoolExecutor(max_workers=1) as pool:
                from_repro(pool.submit, id, MemoCache("decisions"))
        assert any(
            "MemoCache handle" in violation.message
            for violation in sanitizer.violations
        )

    def test_scalar_submission_is_silent(self):
        with DeterminismSanitizer() as sanitizer:
            with ProcessPoolExecutor(max_workers=1) as pool:
                assert from_repro(pool.submit, len, (1, 2, 3)).result() == 3
        assert sanitizer.violations == []


class TestFingerprintEncoder:
    def test_unordered_key_material_records_r001(self):
        from repro.engine import fingerprint

        with DeterminismSanitizer() as sanitizer:
            with pytest.raises(TypeError):
                from_repro(fingerprint._canonical_encode, {"a", "b"})
        assert rules_of(sanitizer) == {"R001"}
        assert "unordered set" in sanitizer.violations[0].message

    def test_set_nested_in_a_tuple_records_r001(self):
        from repro.engine import fingerprint

        with DeterminismSanitizer() as sanitizer:
            with pytest.raises(TypeError):
                from_repro(fingerprint._canonical_encode, (("P1", 1.5), {"a", "b"}))
        assert rules_of(sanitizer) == {"R001"}
        assert "unordered set" in sanitizer.violations[0].message

    def test_canonical_tuples_are_silent(self):
        from repro.engine import fingerprint

        with DeterminismSanitizer() as sanitizer:
            from_repro(fingerprint._canonical_encode, (1, "a", 2.5, None))
        assert sanitizer.violations == []


class TestCrossProcessMutation:
    def test_mutation_from_foreign_pid_records_r007(self, capsys):
        from repro.engine.cache import MemoCache

        with DeterminismSanitizer() as sanitizer:
            cache = from_repro(MemoCache, "decisions")
            # Simulate the fork: pretend the cache was born in another pid.
            sanitizer._birth_pids[id(cache)] = -1
            from_repro(cache.put, ("k",), {"v": 1})
        assert "R007" in rules_of(sanitizer)
        assert "MemoCache.put()" in sanitizer.violations[0].message
        assert "R007" in capsys.readouterr().err

    def test_same_pid_mutation_is_silent(self):
        from repro.engine.cache import MemoCache

        with DeterminismSanitizer() as sanitizer:
            cache = from_repro(MemoCache, "decisions")
            from_repro(cache.put, ("k",), {"v": 1})
        assert sanitizer.violations == []


class TestPayloadChecks:
    def test_non_json_payload_records_r008(self):
        with DeterminismSanitizer() as sanitizer:
            from_repro(
                sanitizer.check_payload,
                {"cost": Decimal("12.5"), "ok": 3},
                "payload",
            )
        assert rules_of(sanitizer) == {"R008"}
        assert "Decimal at payload.cost" in sanitizer.violations[0].message

    def test_check_report_walks_json_facing_fields(self):
        with DeterminismSanitizer() as sanitizer:
            from_repro(
                sanitizer.check_report,
                {"results": {"raw": {1, 2}}, "timings": {"wall": 0.5}},
                "fig6a",
            )
        assert rules_of(sanitizer) == {"R008"}
        assert "report[fig6a].results.raw" in sanitizer.violations[0].message

    def test_native_payload_is_silent(self):
        with DeterminismSanitizer() as sanitizer:
            from_repro(
                sanitizer.check_payload,
                {"acceptance": {"20": 85.0}, "n": 3, "ok": True, "none": None},
                "payload",
            )
        assert sanitizer.violations == []

    def test_report_rendering(self):
        with DeterminismSanitizer() as sanitizer:
            from_repro(sanitizer.check_payload, {"b": b"raw"}, "payload")
        report = sanitizer.report()
        assert len(report.violations) == 1
        assert report.counters["non_json_payload_values"] == 1
        assert "1 violation(s)" in report.format_text()
        payload = report.as_dict()
        assert payload["violations"][0]["rule"] == "R008"


class TestIterNonJsonNative:
    def test_finds_offenders_with_paths(self):
        offenders = dict(
            iter_non_json_native(
                {"a": [1, {"b": Decimal("2")}], "c": (3,), 4: "key"}
            )
        )
        assert "$.a[1].b" in offenders
        assert "$.c" in offenders  # tuples are not JSON-native post-dump
        assert "$.<key 4>" in offenders

    def test_native_tree_yields_nothing(self):
        assert list(iter_non_json_native({"a": [1, 2.5, "s", None, True]})) == []
