"""Schedule-free persistent store: decisions on disk, schedules rebuilt on read.

The store persists every memoized :class:`RedundancyDecision` without its
schedule; searches that read a schedule build it through
:meth:`RedundancyOpt.schedule_of`.  These tests pin both halves of
that contract on a generated 50-process ``synthetic-random`` application:

* no schedule object of any kind survives in a store file, and the two
  decision tables share one slim object per decision;
* every rebuilt schedule is value-equal to the one a cold
  ``ListScheduler.schedule`` call builds for the same design point;
* a store-warmed tabu search returns the cold search's result, schedule
  included, while rebuilding only the schedules it reads;
* ``schedule_of`` schedules at most once per decision.
"""

from __future__ import annotations

import pickle
from dataclasses import replace

import pytest

from repro.api.scenarios_synthetic import FAMILY_HPD, FAMILY_SER
from repro.core.architecture import Architecture, Node
from repro.core.design_strategy import DesignStrategy
from repro.core.mapping import MappingAlgorithm, Objective
from repro.core.mapping_model import ProcessMapping
from repro.core.redundancy import POLICIES, RedundancyDecision, RedundancyOpt
from repro.engine import DesignPointStore, EvaluationEngine
from repro.engine.fingerprint import hardening_fingerprint
from repro.experiments.synthetic import ExperimentPreset
from repro.generator.benchmark import BenchmarkConfig, build_platform, generate_benchmark
from repro.kernels import FlatSchedulerKernel
from repro.scheduling.list_scheduler import ListScheduler
from repro.scheduling.schedule import Schedule, ScheduledMessage, ScheduledProcess

from tests.conftest import production_kernels

SCHEDULE_TYPES = (Schedule, ScheduledProcess, ScheduledMessage)


@pytest.fixture(scope="module")
def platform():
    """The ``synthetic-random`` n=50, seed 1 application at the family setting."""
    benchmark = generate_benchmark(
        1, BenchmarkConfig(n_processes=50, n_node_types=4), name="synthetic_random_1"
    )
    node_types, profile = build_platform(
        benchmark, ser_per_cycle=FAMILY_SER, hardening_performance_degradation=FAMILY_HPD
    )
    return benchmark.application, node_types, profile


@pytest.fixture(scope="module")
def explored(platform, tmp_path_factory):
    """A cold MIN/MAX/OPT exploration persisted to a fresh store."""
    application, node_types, profile = platform
    engine = EvaluationEngine(application, profile)
    preset = ExperimentPreset.smoke()
    for policy in POLICIES:
        DesignStrategy(node_types, preset.mapping_algorithm(policy)).explore(engine)
    store = DesignPointStore(tmp_path_factory.mktemp("store"))
    assert store.persist(engine) > 0
    return engine, store


def _warm_engine(platform, store) -> EvaluationEngine:
    application, _, profile = platform
    engine = EvaluationEngine(application, profile)
    assert store.warm(engine) > 0
    return engine


def _schedule_objects(value, seen=None):
    """Every schedule-typed object reachable from an unpickled payload."""
    seen = set() if seen is None else seen
    if id(value) in seen:
        return []
    seen.add(id(value))
    if isinstance(value, SCHEDULE_TYPES):
        return [value]
    if isinstance(value, dict):
        children = [*value.keys(), *value.values()]
    elif isinstance(value, (list, tuple, set, frozenset)):
        children = list(value)
    elif hasattr(value, "__dict__"):
        children = list(vars(value).values())
    else:
        return []
    found = []
    for child in children:
        found.extend(_schedule_objects(child, seen))
    return found


def _design_point(key, node_types):
    """Rebuild the (architecture, mapping) a decision-table key names."""
    architecture_key, mapping_key, _ = key
    by_name = {node_type.name: node_type for node_type in node_types}
    architecture = Architecture(
        [Node(name, by_name[type_name]) for name, type_name in architecture_key]
    )
    return architecture, ProcessMapping(dict(mapping_key))


def _cold_schedule(decision, application, architecture, mapping, profile):
    """The decision's schedule, built from scratch by a fresh list scheduler."""
    candidate = architecture.copy()
    candidate.apply_hardening_vector(decision.hardening)
    return ListScheduler().schedule(
        application, candidate, mapping, profile, decision.reexecutions
    )


def test_store_file_holds_no_schedule_objects(platform, explored):
    engine, store = explored
    with store.path_for(engine).open("rb") as handle:
        payload = pickle.load(handle)
    decisions = payload["caches"]["decisions"]
    optimizations = payload["caches"]["optimizations"]
    assert decisions and any(value is not None for value in optimizations.values())
    assert _schedule_objects(payload) == []
    assert all(decision.schedule is None for decision in decisions.values())
    # One slim object per decision, shared by both tables as in memory.
    stored = {id(decision) for decision in decisions.values()}
    assert all(
        id(decision) in stored for decision in optimizations.values() if decision is not None
    )
    # The schedules the search read stay on the engine's in-memory decisions.
    assert any(
        isinstance(decision.schedule, Schedule)
        for decision in engine.decisions.snapshot().values()
    )


def test_rebuilt_schedules_equal_the_cold_ones(platform, explored):
    application, node_types, profile = platform
    cold_engine, store = explored
    warm_engine = _warm_engine(platform, store)
    evaluator = RedundancyOpt()
    cold_decisions = cold_engine.decisions.snapshot()
    warm_decisions = warm_engine.decisions.snapshot()
    assert warm_decisions.keys() == cold_decisions.keys()
    for key, decision in warm_decisions.items():
        assert key[2] == hardening_fingerprint(decision.hardening)
        assert decision.schedule is None
        architecture, mapping = _design_point(key, node_types)
        rebuilt = evaluator.schedule_of(warm_engine, decision, architecture, mapping)
        cold = cold_decisions[key]
        cold_schedule = _cold_schedule(cold, application, architecture, mapping, profile)
        assert rebuilt == cold_schedule
        assert rebuilt.length == cold_schedule.length == decision.schedule_length
        for node in cold_schedule.nodes():
            assert rebuilt.processes_on(node) == cold_schedule.processes_on(node)
        assert replace(decision, schedule=None) == replace(cold, schedule=None)


@pytest.mark.parametrize("objective", list(Objective))
def test_store_warmed_tabu_search_returns_the_cold_result(platform, tmp_path, objective):
    application, node_types, profile = platform
    architecture = Architecture([Node(node_type.name, node_type) for node_type in node_types])

    def search(engine):
        algorithm = MappingAlgorithm(
            max_iterations=3,
            stop_after_no_improvement=2,
            max_candidates=2,
        )
        return algorithm.optimize(engine, architecture, objective=objective)

    cold_engine = EvaluationEngine(application, profile)
    cold = search(cold_engine)
    store = DesignPointStore(tmp_path)
    store.persist(cold_engine)
    warm_engine = _warm_engine(platform, store)
    warm = search(warm_engine)

    assert cold is not None and warm is not None
    assert warm == cold
    assert isinstance(warm.schedule, Schedule)
    assert warm.schedule == cold.schedule
    assert warm_engine.evaluations == 0
    # Only the schedules the search read were rebuilt.
    rebuilt = sum(
        decision.schedule is not None for decision in warm_engine.decisions.snapshot().values()
    )
    assert 1 <= rebuilt < len(warm_engine.decisions)


class _CountingScheduler(FlatSchedulerKernel):
    """The production scheduler backend, counting the schedules it builds."""

    def __init__(self) -> None:
        super().__init__()
        self.calls = 0

    def build_schedule(self, problem):
        self.calls += 1
        return super().build_schedule(problem)


def test_schedule_of_schedules_at_most_once_per_decision(platform, explored):
    application, node_types, profile = platform
    cold_engine, _ = explored
    evaluator = RedundancyOpt()
    keys = list(cold_engine.decisions.snapshot())[:5]
    scheduler = _CountingScheduler()
    for key in keys:
        cold = cold_engine.decisions.snapshot()[key]
        architecture, mapping = _design_point(key, node_types)
        cold_schedule = _cold_schedule(cold, application, architecture, mapping, profile)
        with production_kernels(sched=scheduler):
            # A decision that already holds its schedule is returned as is.
            held: RedundancyDecision = replace(cold, schedule=cold_schedule)
            assert (
                evaluator.schedule_of(cold_engine, held, architecture, mapping)
                is cold_schedule
            )
            slim: RedundancyDecision = replace(cold, schedule=None)
            first = evaluator.schedule_of(cold_engine, slim, architecture, mapping)
            second = evaluator.schedule_of(cold_engine, slim, architecture, mapping)
        assert first is second is slim.schedule
        assert first == cold_schedule
    assert scheduler.calls == len(keys)
