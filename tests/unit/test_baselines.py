"""Unit tests for the MIN / MAX / OPT strategies: one optimizer, three policies."""

from __future__ import annotations

import pytest

from repro.core.design_strategy import DesignStrategy
from repro.core.exceptions import OptimizationError
from repro.core.mapping import MappingAlgorithm
from repro.core.redundancy import POLICIES
from repro.experiments.motivational import fig1_application, fig1_node_types, fig1_profile
from repro.experiments.synthetic import ExperimentPreset


def _strategy(policy, **tuning):
    return DesignStrategy(list(fig1_node_types()), MappingAlgorithm(policy, **tuning))


class TestPolicies:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_strategy_is_named_after_its_policy(self, policy):
        strategy = _strategy(policy)
        assert strategy.policy == policy
        assert strategy.mapping_algorithm.redundancy_optimizer.policy == policy

    def test_default_strategy_is_opt(self):
        assert DesignStrategy(list(fig1_node_types())).policy == "OPT"
        assert MappingAlgorithm().redundancy_optimizer.policy == "OPT"

    def test_unknown_policy_rejected(self):
        with pytest.raises(OptimizationError, match="policy must be one of"):
            MappingAlgorithm("median")

    @pytest.mark.parametrize("policy", POLICIES)
    def test_preset_tuning_reaches_every_policy(self, policy):
        preset = ExperimentPreset.smoke()
        algorithm = preset.mapping_algorithm(policy)
        assert algorithm.redundancy_optimizer.policy == policy
        assert algorithm.max_iterations == preset.mapping_iterations
        assert algorithm.stop_after_no_improvement == preset.mapping_stop_after
        assert algorithm.max_candidates == preset.mapping_candidates


class TestStrategiesOnFig1:
    """At the Fig. 1 error rates, MIN fails while MAX and OPT succeed."""

    TUNING = {"max_iterations": 4, "stop_after_no_improvement": 2}

    def test_min_strategy_fails_on_fig1(self):
        result = _strategy("MIN", **self.TUNING).explore(fig1_application(), fig1_profile())
        assert not result.feasible
        assert result.strategy == "MIN"

    def test_max_strategy_succeeds_on_fig1(self):
        result = _strategy("MAX", **self.TUNING).explore(fig1_application(), fig1_profile())
        assert result.feasible
        assert result.strategy == "MAX"
        assert set(result.hardening.values()) == {3}
        # The cheapest max-hardened feasible architecture is the mono N2^3.
        assert result.cost == pytest.approx(80.0)

    def test_opt_strategy_beats_max_on_cost(self):
        opt = _strategy("OPT", **self.TUNING).explore(fig1_application(), fig1_profile())
        maximum = _strategy("MAX", **self.TUNING).explore(fig1_application(), fig1_profile())
        assert opt.feasible and maximum.feasible
        assert opt.strategy == "OPT"
        assert opt.cost < maximum.cost
