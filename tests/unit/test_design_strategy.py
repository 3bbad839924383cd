"""Unit tests for the DesignStrategy architecture exploration."""

from __future__ import annotations

import pytest

from repro.core.architecture import HVersion, NodeType, linear_cost_node_type
from repro.core.design_strategy import ArchitectureEnumerator, DesignStrategy
from repro.core.exceptions import OptimizationError
from repro.core.mapping import MappingAlgorithm
from repro.engine import EvaluationEngine
from repro.experiments.motivational import fig1_application, fig1_node_types, fig1_profile


class TestArchitectureEnumerator:
    def test_requires_node_types(self):
        with pytest.raises(OptimizationError):
            ArchitectureEnumerator([])

    def test_duplicate_names_rejected(self):
        node_type = linear_cost_node_type("N1", 1.0, 2)
        with pytest.raises(OptimizationError):
            ArchitectureEnumerator([node_type, linear_cost_node_type("N1", 2.0, 2)])

    def test_candidates_ordered_fastest_first(self):
        fast = NodeType("fast", [HVersion(1, 1.0)], speed_factor=1.0)
        slow = NodeType("slow", [HVersion(1, 1.0)], speed_factor=2.0)
        medium = NodeType("medium", [HVersion(1, 1.0)], speed_factor=1.5)
        enumerator = ArchitectureEnumerator([slow, fast, medium])
        singles = enumerator.candidates(1)
        assert [subset[0].name for subset in singles] == ["fast", "medium", "slow"]
        pairs = enumerator.candidates(2)
        assert [tuple(t.name for t in subset) for subset in pairs][0] == ("fast", "medium")

    def test_candidate_counts(self):
        node_types = [linear_cost_node_type(f"N{i}", 1.0, 2) for i in range(1, 5)]
        enumerator = ArchitectureEnumerator(node_types)
        assert len(enumerator.candidates(1)) == 4
        assert len(enumerator.candidates(2)) == 6
        assert len(enumerator.candidates(4)) == 1
        assert enumerator.candidates(0) == []
        assert enumerator.candidates(5) == []

    def test_build_resets_to_min_hardening(self, fig1_nodes):
        enumerator = ArchitectureEnumerator(list(fig1_nodes))
        architecture = enumerator.build(enumerator.candidates(2)[0])
        assert set(architecture.hardening_vector().values()) == {1}
        assert len(architecture) == 2


class TestDesignStrategyFig1:
    """End-to-end exploration of the Fig. 1 example.

    The paper's conclusion (Fig. 4): the cheapest feasible implementation is
    the two-node architecture N1^2 + N2^2 at cost 72 (the monoprocessor N2^3
    costs 80).
    """

    @pytest.fixture
    def strategy(self):
        algorithm = MappingAlgorithm(max_iterations=6, stop_after_no_improvement=3)
        return DesignStrategy(list(fig1_node_types()), mapping_algorithm=algorithm)

    def test_finds_solution_at_most_papers_cost(self, strategy):
        result = strategy.explore(EvaluationEngine(fig1_application(), fig1_profile()))
        assert result.feasible
        assert result.is_accepted()
        # The paper's hand-picked solution (Fig. 4a) costs 72; the exploration
        # must find that design or a cheaper feasible one (with our bus timing
        # it finds a 52-unit design that hides the unhardened node's recovery
        # slack under the other node's schedule).
        assert result.cost <= 72.0
        assert result.schedule_length <= 360.0
        assert result.meets_reliability
        assert result.strategy == "OPT"
        # The trade-off signature of the paper is preserved: not every node is
        # maximally hardened, and software re-executions are still used.
        assert any(level < 3 for level in result.hardening.values())
        assert sum(result.reexecutions.values()) >= 1

    def test_acceptance_respects_cost_cap(self, strategy):
        result = strategy.explore(EvaluationEngine(fig1_application(), fig1_profile()))
        assert result.is_accepted(max_architecture_cost=result.cost)
        assert not result.is_accepted(max_architecture_cost=result.cost - 1.0)

    def test_infeasible_with_impossible_deadline(self):
        application = fig1_application()
        tight = type(application)(
            name="tight",
            deadline=40.0,
            reliability_goal=application.reliability_goal,
            recovery_overhead=15.0,
            period=40.0,
        )
        graph = tight.new_graph("G1")
        from repro.core.application import Message, Process

        for name in ("P1", "P2", "P3", "P4"):
            graph.add_process(Process(name))
        graph.add_message(Message("m1", "P1", "P2", transmission_time=10.0))
        graph.add_message(Message("m2", "P1", "P3", transmission_time=10.0))
        graph.add_message(Message("m3", "P2", "P4", transmission_time=10.0))
        graph.add_message(Message("m4", "P3", "P4", transmission_time=10.0))
        strategy = DesignStrategy(
            list(fig1_node_types()),
            mapping_algorithm=MappingAlgorithm(max_iterations=2),
        )
        result = strategy.explore(EvaluationEngine(tight, fig1_profile()))
        assert not result.feasible
        assert not result.is_accepted()
        assert "deadline" in result.failure_reason or result.failure_reason


class TestDesignStrategyReporting:
    def test_result_records_node_types_and_mapping(self):
        strategy = DesignStrategy(
            list(fig1_node_types()),
            mapping_algorithm=MappingAlgorithm(max_iterations=4),
        )
        result = strategy.explore(EvaluationEngine(fig1_application(), fig1_profile()))
        assert set(result.node_types.values()) <= {"N1", "N2"}
        assert result.mapping is not None
        assert set(result.mapping.as_dict()) == {"P1", "P2", "P3", "P4"}
        assert result.schedule is not None
        result.schedule.validate()
        assert result.evaluations > 0
