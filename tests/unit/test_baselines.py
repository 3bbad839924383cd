"""Unit tests for the MIN / MAX / OPT strategy factories."""

from __future__ import annotations

import pytest

from repro.core.baselines import (
    all_strategies,
    max_hardening_strategy,
    min_hardening_strategy,
    optimized_strategy,
)
from repro.core.mapping import MappingAlgorithm
from repro.core.redundancy import FixedHardeningRedundancyOpt, RedundancyOpt
from repro.experiments.motivational import fig1_application, fig1_node_types, fig1_profile


class TestStrategyFactories:
    def test_strategy_names(self):
        node_types = list(fig1_node_types())
        assert optimized_strategy(node_types).strategy_name == "OPT"
        assert min_hardening_strategy(node_types).strategy_name == "MIN"
        assert max_hardening_strategy(node_types).strategy_name == "MAX"

    def test_all_strategies_returns_three(self):
        strategies = all_strategies(list(fig1_node_types()))
        assert set(strategies) == {"MIN", "MAX", "OPT"}

    def test_redundancy_optimizer_types(self):
        node_types = list(fig1_node_types())
        opt = optimized_strategy(node_types)
        minimum = min_hardening_strategy(node_types)
        maximum = max_hardening_strategy(node_types)
        assert isinstance(opt.mapping_algorithm.redundancy_optimizer, RedundancyOpt)
        assert isinstance(
            minimum.mapping_algorithm.redundancy_optimizer, FixedHardeningRedundancyOpt
        )
        assert minimum.mapping_algorithm.redundancy_optimizer.policy == "min"
        assert maximum.mapping_algorithm.redundancy_optimizer.policy == "max"

    def test_mapping_tuning_is_propagated(self):
        template = MappingAlgorithm(
            max_iterations=2, stop_after_no_improvement=1, max_candidates=2
        )
        strategy = min_hardening_strategy(list(fig1_node_types()), template)
        algorithm = strategy.mapping_algorithm
        assert algorithm.max_iterations == 2
        assert algorithm.stop_after_no_improvement == 1
        assert algorithm.max_candidates == 2


class TestStrategiesOnFig1:
    """At the Fig. 1 error rates, MIN fails while MAX and OPT succeed."""

    @pytest.fixture
    def problem(self):
        algorithm = MappingAlgorithm(max_iterations=4, stop_after_no_improvement=2)
        return fig1_application(), fig1_profile(), algorithm

    def test_min_strategy_fails_on_fig1(self, problem):
        application, profile, algorithm = problem
        result = min_hardening_strategy(list(fig1_node_types()), algorithm).explore(
            application, profile
        )
        assert not result.feasible

    def test_max_strategy_succeeds_on_fig1(self, problem):
        application, profile, algorithm = problem
        result = max_hardening_strategy(list(fig1_node_types()), algorithm).explore(
            application, profile
        )
        assert result.feasible
        assert set(result.hardening.values()) == {3}
        # The cheapest max-hardened feasible architecture is the mono N2^3.
        assert result.cost == pytest.approx(80.0)

    def test_opt_strategy_beats_max_on_cost(self, problem):
        application, profile, algorithm = problem
        opt = optimized_strategy(list(fig1_node_types()), algorithm).explore(
            application, profile
        )
        maximum = max_hardening_strategy(list(fig1_node_types()), algorithm).explore(
            application, profile
        )
        assert opt.feasible and maximum.feasible
        assert opt.cost < maximum.cost
