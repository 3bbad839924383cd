"""Unit tests for the tabu-search MappingAlgorithm."""

from __future__ import annotations

import pytest

from repro.core.architecture import Architecture, Node
from repro.core.exceptions import MappingError, OptimizationError
from repro.core.mapping import MappingAlgorithm, MappingResult, Objective
from repro.core.mapping_model import ProcessMapping
from repro.core.profile import ExecutionProfile
from repro.core.redundancy import RedundancyDecision
from repro.experiments.motivational import fig1_node_types


@pytest.fixture
def fig1_architecture():
    n1, n2 = fig1_node_types()
    architecture = Architecture([Node("N1", n1), Node("N2", n2)])
    architecture.set_min_hardening()
    return architecture


class TestInitialMapping:
    def test_initial_mapping_is_complete_and_valid(self, fig1_app, fig1_prof, fig1_architecture):
        algorithm = MappingAlgorithm()
        mapping = algorithm.initial_mapping(fig1_app, fig1_architecture, fig1_prof)
        mapping.validate(fig1_app, fig1_architecture, fig1_prof)
        assert len(mapping) == 4

    def test_initial_mapping_balances_load(self, fig1_app, fig1_prof, fig1_architecture):
        algorithm = MappingAlgorithm()
        mapping = algorithm.initial_mapping(fig1_app, fig1_architecture, fig1_prof)
        # With two similar nodes the greedy load balancer should use both.
        assert len(mapping.used_nodes()) == 2

    def test_unmappable_process_raises(self, fig1_app, fig1_architecture):
        empty_profile = ExecutionProfile()
        with pytest.raises(MappingError):
            MappingAlgorithm().initial_mapping(fig1_app, fig1_architecture, empty_profile)


class TestOptimizeScheduleLength:
    def test_finds_feasible_design_for_fig1(self, fig1_app, fig1_prof, fig1_architecture):
        algorithm = MappingAlgorithm(max_iterations=6, stop_after_no_improvement=3)
        result = algorithm.optimize(
            fig1_app, fig1_architecture, fig1_prof, objective=Objective.SCHEDULE_LENGTH
        )
        assert result is not None
        assert result.is_feasible
        assert result.schedule_length <= fig1_app.deadline
        assert result.objective is Objective.SCHEDULE_LENGTH
        assert result.evaluations > 0

    def test_respects_initial_mapping(self, fig1_app, fig1_prof, fig1_architecture):
        initial = ProcessMapping({"P1": "N1", "P2": "N1", "P3": "N2", "P4": "N2"})
        algorithm = MappingAlgorithm(max_iterations=1, stop_after_no_improvement=1)
        result = algorithm.optimize(
            fig1_app,
            fig1_architecture,
            fig1_prof,
            objective=Objective.SCHEDULE_LENGTH,
            initial_mapping=initial,
        )
        assert result is not None
        # The provided initial mapping must not be mutated by the search.
        assert initial.node_of("P1") == "N1"

    def test_single_node_architecture_has_no_moves(self, fig1_app, fig1_prof):
        n1, _ = fig1_node_types()
        architecture = Architecture([Node("N1", n1)])
        algorithm = MappingAlgorithm(max_iterations=3)
        result = algorithm.optimize(
            fig1_app, architecture, fig1_prof, objective=Objective.SCHEDULE_LENGTH
        )
        # Everything on N1 is unschedulable at any hardening level (Fig. 4b/4d).
        assert result is None


class TestOptimizeCost:
    def test_cost_objective_returns_feasible_cheapest(self, fig1_app, fig1_prof, fig1_architecture):
        algorithm = MappingAlgorithm(max_iterations=6, stop_after_no_improvement=3)
        schedule_result = algorithm.optimize(
            fig1_app, fig1_architecture, fig1_prof, objective=Objective.SCHEDULE_LENGTH
        )
        cost_result = algorithm.optimize(
            fig1_app,
            fig1_architecture,
            fig1_prof,
            objective=Objective.COST,
            initial_mapping=schedule_result.mapping,
        )
        assert cost_result is not None
        assert cost_result.is_feasible
        assert cost_result.cost <= 80.0  # never worse than the monoprocessor N2^3
        assert cost_result.objective_value == cost_result.cost

    def test_cost_objective_infeasible_when_nothing_schedulable(self, fig1_app, fig1_prof):
        n1, _ = fig1_node_types()
        architecture = Architecture([Node("N1", n1)])
        algorithm = MappingAlgorithm(max_iterations=2)
        result = algorithm.optimize(
            fig1_app, architecture, fig1_prof, objective=Objective.COST
        )
        assert result is None


class TestWithLockedHardeningPolicy:
    def test_min_hardening_optimizer_is_used(self, fig1_app, fig1_prof, fig1_architecture):
        algorithm = MappingAlgorithm("MIN", max_iterations=4)
        result = algorithm.optimize(
            fig1_app, fig1_architecture, fig1_prof, objective=Objective.SCHEDULE_LENGTH
        )
        # At minimum hardening the Fig. 1 error rates (1e-3) need several
        # re-executions; no mapping fits 360 ms, matching the paper's message
        # that software-only fault tolerance fails at high error rates.
        assert result is None

    def test_max_hardening_optimizer_finds_design(self, fig1_app, fig1_prof, fig1_architecture):
        algorithm = MappingAlgorithm("MAX", max_iterations=4)
        result = algorithm.optimize(
            fig1_app, fig1_architecture, fig1_prof, objective=Objective.SCHEDULE_LENGTH
        )
        assert result is not None
        assert result.decision.hardening == {"N1": 3, "N2": 3}


class TestMappingResultSchedule:
    def test_optimize_returns_the_winners_schedule(
        self, fig1_app, fig1_prof, fig1_architecture
    ):
        result = MappingAlgorithm(max_iterations=2).optimize(
            fig1_app, fig1_architecture, fig1_prof
        )
        assert result is not None
        assert result.schedule is result.decision.schedule
        assert result.schedule.length == result.schedule_length

    def test_schedule_less_decision_raises_instead_of_returning_none(self):
        decision = RedundancyDecision(
            hardening={"N1": 1},
            reexecutions={"N1": 0},
            schedule=None,
            cost=1.0,
            schedule_length=10.0,
            meets_deadline=True,
            meets_reliability=True,
        )
        result = MappingResult(
            mapping=ProcessMapping({"P1": "N1"}),
            decision=decision,
            objective=Objective.SCHEDULE_LENGTH,
            objective_value=10.0,
            evaluations=1,
        )
        assert result.schedule_length == 10.0
        with pytest.raises(OptimizationError, match="schedule_of"):
            result.schedule


class TestObjectiveValueHelper:
    def test_infeasible_decision_maps_to_infinity(self):
        assert MappingAlgorithm._objective_value(None, Objective.COST) == float("inf")
        assert (
            MappingAlgorithm._objective_value(None, Objective.SCHEDULE_LENGTH)
            == float("inf")
        )


class TestEngineEquivalence:
    """The tabu neighbourhood is scored move by move through the memoized
    redundancy optimizer; which engine serves it changes no result."""

    @pytest.mark.parametrize("objective", [Objective.SCHEDULE_LENGTH, Objective.COST])
    def test_fresh_vs_shared_engine_is_identical(
        self, fig1_app, fig1_prof, fig1_architecture, objective
    ):
        from repro.engine import EvaluationEngine

        def run(engine):
            algorithm = MappingAlgorithm(max_iterations=6, stop_after_no_improvement=3)
            return algorithm.optimize(
                fig1_app, fig1_architecture, fig1_prof, objective=objective, engine=engine
            )

        # The shared engine has already served the other objective's search.
        engine = EvaluationEngine(fig1_app, fig1_prof)
        other = next(item for item in Objective if item is not objective)
        MappingAlgorithm(max_iterations=6, stop_after_no_improvement=3).optimize(
            fig1_app, fig1_architecture, fig1_prof, objective=other, engine=engine
        )
        memoized, plain = run(engine), run(None)
        assert memoized is not None and plain is not None
        assert memoized.mapping.as_dict() == plain.mapping.as_dict()
        assert memoized.decision == plain.decision
        assert memoized.objective_value == plain.objective_value
        assert memoized.evaluations == plain.evaluations
        # Revisited mappings were served from the optimization memo.
        assert engine.optimizations.hits > 0
