"""Unit tests for the greedy ReExecutionOpt heuristic."""

from __future__ import annotations

import pytest

from repro.core import reexecution
from repro.core.architecture import Architecture, HVersion, Node, NodeType
from repro.core.mapping_model import ProcessMapping
from repro.core.profile import ExecutionProfile
from repro.core.reexecution import ReExecutionOpt
from repro.core.sfp import SFPAnalysis
from repro.engine import EvaluationEngine
from repro.experiments.motivational import fig3_application, fig3_node_type, fig3_profile


class TestReExecutionOptFig3:
    """The paper's Fig. 3: required re-executions are 6, 2 and 1 per h-version."""

    @pytest.mark.parametrize("level, expected_k", [(1, 6), (2, 2), (3, 1)])
    def test_required_reexecutions_per_hardening_level(self, level, expected_k):
        application = fig3_application()
        node_type = fig3_node_type()
        profile = fig3_profile()
        architecture = Architecture([Node("N1", node_type, hardening=level)])
        mapping = ProcessMapping({"P1": "N1"})
        decision = ReExecutionOpt().optimize(
            EvaluationEngine(application, profile), architecture, mapping
        )
        assert decision is not None
        assert decision.reexecutions == {"N1": expected_k}
        assert decision.meets_goal
        assert sum(decision.reexecutions.values()) == expected_k


    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_shared_engine_memo_is_bit_identical(self, level):
        """The greedy steps re-query the same exceedances; serving them from
        a shared engine's memo matches the engine-free call's private engine,
        and a rerun is all memo hits."""
        application = fig3_application()
        profile = fig3_profile()
        architecture = Architecture([Node("N1", fig3_node_type(), hardening=level)])
        mapping = ProcessMapping({"P1": "N1"})
        plain = ReExecutionOpt().optimize(
            EvaluationEngine(application, profile), architecture, mapping
        )
        engine = EvaluationEngine(application, profile)
        optimizer = ReExecutionOpt()
        memoized = optimizer.optimize(engine, architecture, mapping)
        assert memoized == plain
        misses = engine.exceedance.misses
        assert misses > 0
        assert optimizer.optimize(engine, architecture, mapping) == plain
        assert engine.exceedance.misses == misses


class TestReExecutionOptFig4a:
    def test_one_reexecution_per_node(
        self, fig1_app, fig1_prof, fig4a_architecture, fig4a_mapping
    ):
        decision = ReExecutionOpt().optimize(
            EvaluationEngine(fig1_app, fig1_prof), fig4a_architecture, fig4a_mapping
        )
        assert decision is not None
        assert decision.reexecutions == {"N1": 1, "N2": 1}
        assert decision.system_failure_per_iteration == pytest.approx(9.6e-10, abs=1e-13)


class TestReExecutionOptGeneral:
    def _one_node_setup(self, failure_probability: float):
        from repro.core.application import Application, Process

        application = Application(
            "app", deadline=1000.0, reliability_goal=1 - 1e-5, recovery_overhead=1.0
        )
        graph = application.new_graph("G")
        graph.add_process(Process("P1"))
        node_type = NodeType("N1", [HVersion(1, 1.0)])
        profile = ExecutionProfile()
        profile.add_entry("P1", "N1", 1, 10.0, failure_probability)
        architecture = Architecture([Node("N1", node_type)])
        mapping = ProcessMapping({"P1": "N1"})
        return EvaluationEngine(application, profile), architecture, mapping

    def test_zero_failure_probability_needs_no_reexecution(self):
        decision = ReExecutionOpt().optimize(*self._one_node_setup(0.0))
        assert decision is not None
        assert decision.reexecutions == {"N1": 0}

    def test_goal_unreachable_within_cap_returns_none(self):
        # A 90% failure probability cannot reach 1-1e-5 per hour within
        # MAX_REEXECUTIONS_PER_NODE re-executions.
        assert ReExecutionOpt().optimize(*self._one_node_setup(0.9)) is None

    def test_budget_grows_with_failure_probability(self):
        small = self._one_node_setup(1e-6)
        large = self._one_node_setup(1e-3)
        k_small = ReExecutionOpt().optimize(*small).reexecutions["N1"]
        k_large = ReExecutionOpt().optimize(*large).reexecutions["N1"]
        assert k_large >= k_small

    def test_reexecutions_prefer_less_reliable_node(self, fig1_app, fig1_prof, fig1_nodes):
        # Map P1/P2 on a highly hardened node and P3/P4 on a weak node: the
        # heuristic should spend its re-executions on the weak node first.
        n1, n2 = fig1_nodes
        architecture = Architecture(
            [Node("N1", n1, hardening=3), Node("N2", n2, hardening=1)]
        )
        mapping = ProcessMapping({"P1": "N1", "P2": "N1", "P3": "N2", "P4": "N2"})
        decision = ReExecutionOpt().optimize(
            EvaluationEngine(fig1_app, fig1_prof), architecture, mapping
        )
        assert decision is not None
        assert decision.reexecutions["N2"] > decision.reexecutions["N1"]

    def test_evaluate_reports_without_optimizing(
        self, fig1_app, fig1_prof, fig4a_architecture, fig4a_mapping
    ):
        analysis = SFPAnalysis(
            EvaluationEngine(fig1_app, fig1_prof), fig4a_architecture, fig4a_mapping
        )
        assert not analysis.evaluate({"N1": 0, "N2": 0}).meets_goal
        assert analysis.evaluate({"N1": 1, "N2": 1}).meets_goal

    def test_cap_bounds_the_budget(self, monkeypatch):
        # A 30% failure probability needs 16 re-executions: within the cap,
        # out of reach below it.
        setup = self._one_node_setup(0.3)
        decision = ReExecutionOpt().optimize(*setup)
        assert decision.reexecutions == {"N1": 16}
        assert decision.reexecutions["N1"] <= reexecution.MAX_REEXECUTIONS_PER_NODE
        monkeypatch.setattr(reexecution, "MAX_REEXECUTIONS_PER_NODE", 15)
        assert ReExecutionOpt().optimize(*setup) is None
