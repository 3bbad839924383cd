"""Cache-equivalence guarantees of the evaluation engine.

The engine's whole contract is "same results, less work": a warm engine,
a cold engine, an engine shared with other strategies and the fresh engine
an engine-free call makes for itself must produce bit-identical designs for
every strategy.  These tests drive the full DSE stack over several generated
applications and compare every field of the resulting :class:`DesignResult`s;
the engine's own counters show how much of the work the memo tables served.
"""

from __future__ import annotations

import random

import pytest

from repro.core.architecture import Architecture, Node
from repro.core.design_strategy import DesignStrategy
from repro.core.fault_model import SER_MEDIUM
from repro.core.mapping import MappingAlgorithm
from repro.core.mapping_model import ProcessMapping
from repro.core.redundancy import POLICIES, RedundancyOpt
from repro.engine import EvaluationEngine
from repro.generator.benchmark import (
    BenchmarkConfig,
    build_platform,
    generate_benchmark_suite,
)

def _strategy(policy, node_types) -> DesignStrategy:
    algorithm = MappingAlgorithm(
        policy, max_iterations=3, stop_after_no_improvement=2, max_candidates=2
    )
    return DesignStrategy(node_types, algorithm)


def _semantic_fields(result):
    return {
        "strategy": result.strategy,
        "application": result.application,
        "feasible": result.feasible,
        "node_types": result.node_types,
        "hardening": result.hardening,
        "reexecutions": result.reexecutions,
        "mapping": result.mapping.as_dict() if result.mapping is not None else None,
        "schedule_length": result.schedule_length,
        "deadline": result.deadline,
        "cost": result.cost,
        "meets_reliability": result.meets_reliability,
        "failure_reason": result.failure_reason,
        "evaluations": result.evaluations,
    }


@pytest.fixture(scope="module", params=[1, 17, 4242])
def platform(request):
    benchmark = generate_benchmark_suite(
        count=1,
        base_seed=request.param,
        config=BenchmarkConfig(n_node_types=3),
        process_counts=(12,),
    )[0]
    node_types, profile = build_platform(
        benchmark, ser_per_cycle=SER_MEDIUM, hardening_performance_degradation=25.0
    )
    return benchmark.application, node_types, profile


@pytest.mark.parametrize("strategy_name", ["MIN", "MAX", "OPT"])
class TestColdWarmEquivalence:
    def test_cold_vs_warm_engine_is_bit_identical(self, platform, strategy_name):
        application, node_types, profile = platform
        strategy = _strategy(strategy_name, node_types)
        engine = EvaluationEngine(application, profile)
        cold = strategy.explore(application, profile, engine=engine)
        cold_stats = engine.stats
        assert cold_stats.misses > 0
        warm = strategy.explore(application, profile, engine=engine)
        assert _semantic_fields(cold) == _semantic_fields(warm)
        # The warm pass re-resolves every design point from cache: it adds
        # hits, and at a higher rate than the cold pass served them.
        warm_hits = engine.stats.hits - cold_stats.hits
        warm_misses = engine.stats.misses - cold_stats.misses
        assert warm_hits > 0
        assert warm_hits / (warm_hits + warm_misses) > cold_stats.hit_rate

    def test_fresh_vs_shared_engine_is_bit_identical(self, platform, strategy_name):
        application, node_types, profile = platform
        # The shared engine already holds the other strategies' design points.
        shared_engine = EvaluationEngine(application, profile)
        for other in POLICIES:
            if other != strategy_name:
                _strategy(other, node_types).explore(
                    application, profile, engine=shared_engine
                )
        shared_strategy = _strategy(strategy_name, node_types)
        fresh_strategy = _strategy(strategy_name, node_types)
        shared = shared_strategy.explore(application, profile, engine=shared_engine)
        fresh = fresh_strategy.explore(application, profile)
        assert _semantic_fields(shared) == _semantic_fields(fresh)


def test_shared_engine_across_strategies_is_bit_identical(platform):
    """MIN/MAX/OPT sharing one engine must match per-strategy engines."""
    application, node_types, profile = platform
    shared_engine = EvaluationEngine(application, profile)
    shared, isolated = {}, {}
    for name in POLICIES:
        shared[name] = _strategy(name, node_types).explore(
            application, profile, engine=shared_engine
        )
    for name in POLICIES:
        isolated[name] = _strategy(name, node_types).explore(application, profile)
    for name in POLICIES:
        assert _semantic_fields(shared[name]) == _semantic_fields(isolated[name])


# ----------------------------------------------------------------------
# aliasing oracle for the decisions and optimizations memo tables
# ----------------------------------------------------------------------
def _design_points(application, node_types, profile, rng, count):
    """Random (architecture, mapping, full hardening vector) triples.

    Nodes are named by position (``N1``, ``N2`` ...), not by type, so
    triples on different node-type subsets share node names, mappings and
    hardening vectors: exactly the collisions the memo keys must tell
    apart.  About a third of the triples repeat an earlier one as new,
    equal objects, so the shared engine also serves hits.
    """
    processes = application.process_names()
    points = []
    while len(points) < count:
        if points and rng.random() < 0.3:
            architecture, mapping, hardening = rng.choice(points)
            points.append(
                (architecture.copy(), ProcessMapping(mapping.as_dict()), dict(hardening))
            )
            continue
        size = rng.randint(1, min(3, len(node_types)))
        subset = rng.sample(node_types, size)
        architecture = Architecture(
            [Node(f"N{index + 1}", node_type) for index, node_type in enumerate(subset)]
        )
        assignment = {}
        for process in processes:
            supported = [
                node.name
                for node in architecture
                if profile.supports(process, node.node_type.name)
            ]
            if not supported:
                break
            assignment[process] = rng.choice(supported)
        else:
            hardening = {
                node.name: rng.choice(node.node_type.hardening_levels)
                for node in architecture
            }
            points.append((architecture, ProcessMapping(assignment), hardening))
    return points


def test_shared_engine_decisions_equal_fresh_engine_decisions(platform):
    """One long-lived engine serving every design point returns, point by
    point, what a fresh engine computes for that point alone."""
    application, node_types, profile = platform
    rng = random.Random(application.name)
    # Two evaluators sharing the engine, and so every decision key.
    evaluators = (RedundancyOpt("OPT"), RedundancyOpt("MIN"))
    shared = EvaluationEngine(application, profile)
    for architecture, mapping, hardening in _design_points(
        application, node_types, profile, rng, 120
    ):
        for evaluator in evaluators:
            fresh = EvaluationEngine(application, profile)
            assert evaluator.evaluate_hardening(
                application, architecture, mapping, profile, hardening, shared
            ) == evaluator.evaluate_hardening(
                application, architecture, mapping, profile, hardening, fresh
            )
    assert shared.decisions.hits > 0


def test_shared_engine_optimizations_equal_fresh_engine_optimizations(platform):
    """The same oracle one level up: whole redundancy-optimizer runs of
    OPT, MIN and MAX on one shared engine versus a fresh engine each."""
    application, node_types, profile = platform
    rng = random.Random(application.name)
    optimizers = [RedundancyOpt(policy) for policy in POLICIES]
    shared = EvaluationEngine(application, profile)
    for architecture, mapping, _ in _design_points(
        application, node_types, profile, rng, 40
    ):
        for optimizer in optimizers:
            fresh = EvaluationEngine(application, profile)
            assert optimizer.optimize(
                application, architecture, mapping, profile, shared
            ) == optimizer.optimize(application, architecture, mapping, profile, fresh)
    assert shared.optimizations.hits > 0
