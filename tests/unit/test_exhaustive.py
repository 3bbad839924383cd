"""Unit tests for the exhaustive (optimal) design-space search."""

from __future__ import annotations

import pytest

from repro.core.application import Application, Process
from repro.core.exceptions import OptimizationError
from repro.core.exhaustive import ExhaustiveSearch
from repro.core.design_strategy import DesignStrategy
from repro.core.mapping import MappingAlgorithm
from repro.engine import EvaluationEngine
from repro.experiments.motivational import fig1_application, fig1_node_types, fig1_profile


class TestExhaustiveSearchLimits:
    def test_requires_node_types(self):
        with pytest.raises(OptimizationError):
            ExhaustiveSearch([])

    def test_rejects_large_instances(self):
        application = Application("big", deadline=100.0, reliability_goal=0.999)
        graph = application.new_graph("G")
        for index in range(10):
            graph.add_process(Process(f"P{index}", nominal_wcet=1.0))
        search = ExhaustiveSearch(list(fig1_node_types()), max_processes=8)
        with pytest.raises(OptimizationError):
            search.explore(EvaluationEngine(application, fig1_profile()))


class TestExhaustiveOnFig1:
    @pytest.fixture(scope="class")
    def optimal(self):
        search = ExhaustiveSearch(list(fig1_node_types()), max_nodes=2)
        return search.explore(EvaluationEngine(fig1_application(), fig1_profile()))

    def test_finds_a_feasible_design(self, optimal):
        assert optimal.feasible
        assert optimal.strategy == "EXHAUSTIVE"
        assert optimal.schedule_length <= 360.0
        assert optimal.meets_reliability

    def test_optimum_is_at_most_the_papers_solution(self, optimal):
        # The paper's hand-picked Fig. 4a design costs 72; the true optimum of
        # the enumerated space (with 10 ms messages) is 52.
        assert optimal.cost <= 72.0
        assert optimal.cost == pytest.approx(52.0)

    def test_heuristic_never_beats_the_exhaustive_optimum(self, optimal):
        strategy = DesignStrategy(
            list(fig1_node_types()),
            mapping_algorithm=MappingAlgorithm(max_iterations=6, stop_after_no_improvement=3),
        )
        heuristic = strategy.explore(EvaluationEngine(fig1_application(), fig1_profile()))
        assert heuristic.feasible
        assert heuristic.cost >= optimal.cost - 1e-9

    def test_cost_cap_prunes_to_infeasible(self):
        search = ExhaustiveSearch(list(fig1_node_types()), max_nodes=2)
        result = search.explore(
            EvaluationEngine(fig1_application(), fig1_profile()), max_architecture_cost=30.0
        )
        assert not result.feasible

    def test_reports_evaluation_count(self, optimal):
        assert optimal.evaluations > 0


class TestExhaustiveOnTinyInstance:
    def test_single_process_picks_cheapest_sufficient_hardening(self):
        from repro.experiments.motivational import (
            fig3_application,
            fig3_node_type,
            fig3_profile,
        )

        search = ExhaustiveSearch([fig3_node_type()], max_nodes=1)
        result = search.explore(EvaluationEngine(fig3_application(), fig3_profile()))
        assert result.feasible
        # Fig. 3: the cheapest feasible h-version is the second one (cost 20).
        assert result.cost == 20.0
        assert result.hardening == {"N1": 2}
