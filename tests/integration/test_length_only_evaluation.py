"""Length-only evaluation: a design point is scored by its worst-case length.

Every freshly evaluated :class:`RedundancyDecision` starts without a
schedule, exactly like one read back from the persistent store.  The search
scores it by ``schedule_length`` (``ListScheduler.worst_case_length``), and
:meth:`RedundancyOpt.schedule_of` is the only place a schedule gets
built.  A smoke MIN/MAX/OPT exploration pins both halves: the decisions that
hold a schedule are exactly the ones the search read, and the schedule built
for any decision has that decision's length, bit for bit.
"""

from __future__ import annotations

import pytest

from repro.core.architecture import Architecture, Node
from repro.core.design_strategy import DesignStrategy
from repro.core.fault_model import SER_MEDIUM
from repro.core.mapping_model import ProcessMapping
from repro.core.redundancy import POLICIES, RedundancyOpt
from repro.engine import EvaluationEngine
from repro.experiments.synthetic import ExperimentPreset
from repro.generator.benchmark import BenchmarkConfig, build_platform, generate_benchmark


@pytest.fixture(scope="module")
def platform():
    benchmark = generate_benchmark(17, BenchmarkConfig(n_processes=16, n_node_types=3))
    node_types, profile = build_platform(
        benchmark, ser_per_cycle=SER_MEDIUM, hardening_performance_degradation=25.0
    )
    return benchmark.application, node_types, profile


@pytest.fixture(scope="module")
def explored(platform):
    """A smoke exploration plus the ids of the decisions it read schedules of."""
    application, node_types, profile = platform
    read = set()
    original = RedundancyOpt.schedule_of

    def recording(self, engine, decision, *args):
        read.add(id(decision))
        return original(self, engine, decision, *args)

    engine = EvaluationEngine(application, profile)
    preset = ExperimentPreset.smoke()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(RedundancyOpt, "schedule_of", recording)
        for policy in POLICIES:
            strategy = DesignStrategy(node_types, preset.mapping_algorithm(policy))
            result = strategy.explore(engine)
            assert result.feasible
    return engine, read


def _design_point(key, node_types):
    """Rebuild the (architecture, mapping) a decision-table key names."""
    architecture_key, mapping_key, _ = key
    by_name = {node_type.name: node_type for node_type in node_types}
    architecture = Architecture(
        [Node(name, by_name[type_name]) for name, type_name in architecture_key]
    )
    return architecture, ProcessMapping(dict(mapping_key))


def test_only_the_decisions_the_search_read_hold_a_schedule(explored):
    engine, read = explored
    decisions = list(engine.decisions.snapshot().values())
    assert engine.evaluations == len(decisions) > 0
    scheduled = {id(decision) for decision in decisions if decision.schedule is not None}
    assert scheduled and scheduled <= read
    # Most points are scored and dropped without ever being scheduled.
    assert len(scheduled) < len(decisions)


def test_every_built_schedule_has_the_scored_length(platform, explored):
    application, node_types, profile = platform
    engine, _ = explored
    evaluator = RedundancyOpt()
    for key, decision in engine.decisions.snapshot().items():
        architecture, mapping = _design_point(key, node_types)
        schedule = evaluator.schedule_of(engine, decision, architecture, mapping)
        assert decision.schedule is schedule
        assert schedule.length == decision.schedule_length
        assert decision.meets_deadline == (schedule.length <= application.deadline)
