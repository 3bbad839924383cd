"""ReExecutionOpt against the greedy loop it replaced.

The production loop reads each node's exceedance at one more re-execution
from the engine once per budget, reuses it on every later greedy step, takes
the winning candidate's union as the new system value, and credits the
engine's counters for every value it reuses.  The former loop is kept here
as the oracle: every greedy step asks the engine for every open node's
next-budget exceedance and looks the winner's union up again.

On seeded random design points (the Fig. 1 example and generated
``synthetic-random`` applications) both loops must return equal
:class:`ReExecutionDecision` values and move every memo table's hits,
misses and disk hits by the same amounts — on a fresh engine and on one
warmed from a store, where the credited disk hits are what is pinned.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

import pytest

from repro.core.architecture import Architecture, Node
from repro.core.fault_model import SER_HIGH, SER_MEDIUM
from repro.core.mapping_model import ProcessMapping
from repro.core.reexecution import (
    MAX_REEXECUTIONS_PER_NODE,
    ReExecutionDecision,
    ReExecutionOpt,
)
from repro.core.sfp import reliability_over_time_unit
from repro.engine import DesignPointStore, EvaluationEngine
from repro.experiments.motivational import fig1_application, fig1_node_types, fig1_profile
from repro.generator.benchmark import BenchmarkConfig, build_platform, generate_benchmark


def oracle_optimize(application, architecture, mapping, profile, engine):
    """The greedy loop as it was before the next-budget exceedances were kept."""
    cap = MAX_REEXECUTIONS_PER_NODE
    node_names = [node.name for node in architecture]
    prob_list = [
        tuple(
            profile.failure_probability(process, node.node_type.name, node.hardening)
            for process in mapping.processes_on(node.name)
        )
        for node in architecture
    ]
    count = len(node_names)
    exceedance = engine.node_exceedance
    union_failure = engine.system_failure

    budget_list = [0] * count
    ex_list = [exceedance(block, 0) for block in prob_list]

    goal = application.reliability_goal
    time_unit = application.time_unit
    period = application.period

    system = union_failure(tuple(ex_list))
    reliability = reliability_over_time_unit(system, time_unit, period)
    while reliability < goal:
        best_index = -1
        best_system = system
        best_exceedance = 0.0
        for i in range(count):
            if budget_list[i] >= cap or not prob_list[i]:
                continue
            candidate_exceedance = exceedance(prob_list[i], budget_list[i] + 1)
            previous = ex_list[i]
            ex_list[i] = candidate_exceedance
            candidate_values = tuple(ex_list)
            ex_list[i] = previous
            candidate_system = union_failure(candidate_values)
            if candidate_system < best_system:
                best_index = i
                best_system = candidate_system
                best_exceedance = candidate_exceedance
        if best_index < 0:
            return None
        budget_list[best_index] += 1
        ex_list[best_index] = best_exceedance
        system = union_failure(tuple(ex_list))
        reliability = reliability_over_time_unit(system, time_unit, period)

    return ReExecutionDecision(
        reexecutions=dict(zip(node_names, budget_list)),
        system_failure_per_iteration=system,
        reliability_over_time_unit=reliability,
        meets_goal=True,
    )


#: (application, node types, profile) of one design-point family.
Platform = Tuple[object, List[object], object]


def _fig1_platform() -> Platform:
    return fig1_application(), list(fig1_node_types()), fig1_profile()


def _synthetic_platform(seed: int, ser: float) -> Platform:
    benchmark = generate_benchmark(seed, BenchmarkConfig(n_processes=12))
    node_types, profile = build_platform(
        benchmark, ser_per_cycle=ser, hardening_performance_degradation=0.25
    )
    return benchmark.application, node_types, profile


PLATFORMS = {
    "fig1": _fig1_platform,
    "synthetic-medium-ser": lambda: _synthetic_platform(3, SER_MEDIUM),
    "synthetic-high-ser": lambda: _synthetic_platform(5, SER_HIGH),
}


def _design_points(platform: Platform, seed: int, count: int):
    """Seeded random (architecture, mapping) pairs over ``platform``.

    Few distinct nodes and levels on purpose, so later points revisit the
    exceedances and unions of earlier ones.
    """
    application, node_types, _ = platform
    rng = random.Random(seed)
    processes = application.process_names()
    points = []
    for _ in range(count):
        chosen = rng.sample(node_types, rng.randint(1, min(3, len(node_types))))
        architecture = Architecture(
            [
                Node(node_type.name, node_type, hardening=rng.choice(node_type.hardening_levels))
                for node_type in chosen
            ]
        )
        mapping = ProcessMapping(
            {process: rng.choice(chosen).name for process in processes}
        )
        points.append((architecture, mapping))
    return points


def _counters(engine: EvaluationEngine) -> Dict[str, Tuple[int, int, int]]:
    return {
        cache.name: (cache.hits, cache.misses, cache.disk_hits) for cache in engine.caches
    }


def _delta(after, before):
    return {
        name: tuple(a - b for a, b in zip(after[name], before[name])) for name in after
    }


def _assert_same_walk(points, platform, production: EvaluationEngine, oracle: EvaluationEngine):
    """Run every point through both loops; compare decisions and counter moves."""
    application, _, profile = platform
    optimizer = ReExecutionOpt()
    outcomes: List[Optional[ReExecutionDecision]] = []
    for architecture, mapping in points:
        before = (_counters(production), _counters(oracle))
        produced = optimizer.optimize(production, architecture, mapping)
        expected = oracle_optimize(application, architecture, mapping, profile, oracle)
        assert produced == expected
        assert _delta(_counters(production), before[0]) == _delta(_counters(oracle), before[1])
        outcomes.append(produced)
    return outcomes


@pytest.mark.parametrize("family", sorted(PLATFORMS))
def test_decisions_and_counters_match_the_oracle_on_a_fresh_engine(family):
    platform = PLATFORMS[family]()
    application, _, profile = platform
    points = _design_points(platform, seed=11, count=40)
    outcomes = _assert_same_walk(
        points, platform,
        EvaluationEngine(application, profile), EvaluationEngine(application, profile),
    )
    # The points reach past the first greedy step, so kept exceedances are
    # reused, and some need more than one re-execution on a node.
    assert any(
        decision is not None and max(decision.reexecutions.values()) > 1
        for decision in outcomes
    )


@pytest.mark.parametrize("family", sorted(PLATFORMS))
def test_credited_disk_hits_match_the_oracle_on_a_warmed_engine(family, tmp_path):
    platform = PLATFORMS[family]()
    application, _, profile = platform
    seeding = EvaluationEngine(application, profile)
    for architecture, mapping in _design_points(platform, seed=11, count=40):
        ReExecutionOpt().optimize(seeding, architecture, mapping)
    store = DesignPointStore(tmp_path)
    assert store.persist(seeding) > 0

    production = EvaluationEngine(application, profile)
    oracle = EvaluationEngine(application, profile)
    assert store.warm(production) == store.warm(oracle) > 0
    # Half revisited points (served from disk), half new ones.
    points = (
        _design_points(platform, seed=11, count=20)
        + _design_points(platform, seed=12, count=20)
    )
    _assert_same_walk(points, platform, production, oracle)
    assert production.exceedance.disk_hits > 0
    assert production.system.disk_hits > 0


def test_a_node_reaching_the_cap_stops_taking_part(monkeypatch):
    """A low cap makes nodes drop out mid-loop; the walks still agree."""
    monkeypatch.setattr("repro.core.reexecution.MAX_REEXECUTIONS_PER_NODE", 2)
    monkeypatch.setattr(f"{__name__}.MAX_REEXECUTIONS_PER_NODE", 2)
    platform = PLATFORMS["synthetic-high-ser"]()
    application, _, profile = platform
    outcomes = _assert_same_walk(
        _design_points(platform, seed=13, count=40), platform,
        EvaluationEngine(application, profile), EvaluationEngine(application, profile),
    )
    assert None in outcomes
    assert any(decision is not None for decision in outcomes)
