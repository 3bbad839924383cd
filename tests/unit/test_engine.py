"""Unit tests for the memoized evaluation engine subsystem."""

from __future__ import annotations

import pytest

from repro.core.architecture import Architecture, Node, linear_cost_node_type
from repro.core.mapping_model import ProcessMapping
from repro.core.sfp import probability_exceeds, system_failure_probability
from repro.engine import EvaluationEngine, MISS, MemoCache, resolve_engine
from repro.engine.cache import CacheStats
from repro.engine.fingerprint import (
    architecture_fingerprint,
    hardening_fingerprint,
    mapping_fingerprint,
)
from repro.experiments.motivational import fig1_application, fig1_profile, fig3_application
from repro.kernels import ArrayKernel, ReferenceKernel

from tests.conftest import production_kernels


# ----------------------------------------------------------------------
# fingerprints
# ----------------------------------------------------------------------
class TestFingerprints:
    def test_mapping_fingerprint_ignores_insertion_order(self):
        first = ProcessMapping({"P1": "N1", "P2": "N2"})
        second = ProcessMapping({"P2": "N2", "P1": "N1"})
        assert mapping_fingerprint(first) == mapping_fingerprint(second)

    def test_mapping_fingerprint_distinguishes_assignments(self):
        first = ProcessMapping({"P1": "N1", "P2": "N2"})
        second = ProcessMapping({"P1": "N2", "P2": "N1"})
        assert mapping_fingerprint(first) != mapping_fingerprint(second)

    def test_hardening_fingerprint_is_canonical(self):
        assert hardening_fingerprint({"N2": 1, "N1": 3}) == (("N1", 3), ("N2", 1))

    def test_architecture_fingerprint_excludes_levels(self):
        node_type = linear_cost_node_type("NT", base_cost=2.0, levels=3)
        architecture = Architecture([Node("N1", node_type)])
        before = architecture_fingerprint(architecture)
        architecture.node("N1").hardening = 3
        assert architecture_fingerprint(architecture) == before


# ----------------------------------------------------------------------
# cache primitives
# ----------------------------------------------------------------------
class TestMemoCache:
    def test_miss_then_hit(self):
        cache = MemoCache("test")
        assert cache.get("k") is MISS
        cache.put("k", 42)
        assert cache.get("k") == 42
        assert cache.hits == 1
        assert cache.misses == 1

    def test_none_is_a_cacheable_value(self):
        cache = MemoCache("test")
        calls = []

        def compute():
            calls.append(1)
            return None

        assert cache.memoize("k", compute) is None
        assert cache.memoize("k", compute) is None
        assert calls == [1]

    def test_lookup_sequence_counts_every_hit_and_miss(self):
        """Duplicates are hits once computed: the scalar loop stores each
        miss before the next lookup."""
        cache = MemoCache("test")
        cache.put("a", 1)
        computed = []

        def compute(key):
            computed.append(key)
            return key.upper()

        values = [cache.memoize(key, lambda key=key: compute(key))
                  for key in ["a", "b", "b", "c", "a"]]
        assert values == [1, "B", "B", "C", 1]
        assert computed == ["b", "c"]
        assert cache.hits == 3
        assert cache.misses == 2

    def test_preloaded_keys_count_disk_hits(self):
        cache = MemoCache("test")
        assert cache.load({"a": 1}) == 1
        cache.put("b", 2)
        assert [cache.get(key) for key in ["a", "a", "b"]] == [1, 1, 2]
        assert cache.hits == 3
        assert cache.disk_hits == 2

    def test_load_keeps_in_memory_entries(self):
        cache = MemoCache("test")
        cache.put("a", "fresh")
        assert cache.load({"a": "stale", "b": "disk"}) == 1
        assert cache.get("a") == "fresh"
        assert cache.get("b") == "disk"
        # Only the newly inserted key was marked preloaded.
        assert cache.disk_hits == 1

    def test_fresh_entries_count_what_was_not_preloaded(self):
        cache = MemoCache("test")
        cache.put("a", "fresh")
        cache.load({"a": "stale", "b": "disk", "c": "disk"})
        assert len(cache) == 3
        assert cache.fresh_entries == 1
        cache.memoize("b", lambda: "recomputed")  # a hit adds nothing
        assert cache.fresh_entries == 1
        cache.memoize("d", lambda: "new")
        assert cache.fresh_entries == 2

    def test_stats_arithmetic(self):
        total = CacheStats(hits=3, misses=1) + CacheStats(hits=1, misses=3)
        assert total.hits == 4
        assert total.misses == 4
        assert total.hit_rate == 0.5
        assert CacheStats().hit_rate == 0.0


# ----------------------------------------------------------------------
# engine
# ----------------------------------------------------------------------
@pytest.fixture
def engine():
    return EvaluationEngine(fig1_application(), fig1_profile())


class TestEvaluationEngine:
    def test_matches_is_identity_based(self, engine):
        assert engine.matches(engine.application, engine.profile)
        assert not engine.matches(fig1_application(), engine.profile)
        assert not engine.matches(engine.application, fig1_profile())

    def test_memoized_sfp_matches_module_functions(self, engine):
        probabilities = (1.2e-5, 3.4e-6, 5.6e-7)
        for reexecutions in range(4):
            assert engine.node_exceedance(probabilities, reexecutions) == probability_exceeds(
                probabilities, reexecutions
            )
        exceedances = (1.0e-9, 2.0e-9)
        assert engine.system_failure(exceedances) == system_failure_probability(exceedances)

    def test_memoized_sfp_counts_hits(self, engine):
        probabilities = (1.2e-5, 3.4e-6)
        engine.node_exceedance(probabilities, 1)
        engine.node_exceedance(probabilities, 1)
        assert engine.exceedance.hits == 1
        assert engine.exceedance.misses == 1
        assert engine.stats.hits == 1

    def test_stats_by_cache_names_every_memo_table(self, engine):
        engine.node_exceedance((1e-6,), 1)
        by_cache = engine.stats_by_cache()
        assert set(by_cache) == {
            "decisions",
            "optimizations",
            "exceedance",
            "system_failure",
        }
        assert by_cache["exceedance"]["misses"] == 1
        assert engine.stats.misses == 1

    def test_memo_entries_are_valid_across_kernels(self):
        """The kernel is not part of any memo key: entries computed by one
        backend serve another backend's engine as preloaded hits."""
        application, profile = fig1_application(), fig1_profile()
        with production_kernels(sfp=ReferenceKernel()):
            source = EvaluationEngine(application, profile)
        rows = [((1.2e-5, 3.4e-6), budget) for budget in range(4)]
        values = [source.node_exceedance(row, budget) for row, budget in rows]
        target = EvaluationEngine(application, profile)
        assert type(source.kernel) is ReferenceKernel and type(target.kernel) is ArrayKernel
        target.exceedance.load(source.exceedance.snapshot())
        assert [target.node_exceedance(row, budget) for row, budget in rows] == values
        assert target.exceedance.misses == 0
        assert target.exceedance.disk_hits == len(rows)


class TestResolveEngine:
    def test_none_gets_a_fresh_engine_for_the_context(self):
        application, profile = fig1_application(), fig1_profile()
        first = resolve_engine(None, application, profile)
        assert first.matches(application, profile)
        assert resolve_engine(None, application, profile) is not first

    def test_an_engine_of_the_context_is_returned_as_is(self, engine):
        assert resolve_engine(engine, engine.application, engine.profile) is engine

    def test_an_engine_of_another_context_names_both_applications(self, engine):
        other = fig3_application()
        with pytest.raises(ValueError, match="'fig1'.*'fig3'"):
            resolve_engine(engine, other, engine.profile)
        with pytest.raises(ValueError, match="'fig1'.*'fig1'"):
            resolve_engine(engine, engine.application, fig1_profile())
