"""Unit tests for RedundancyOpt (hardening/re-execution trade-off)."""

from __future__ import annotations

import pytest

from repro.core.architecture import Architecture, Node
from repro.core.design_strategy import DesignStrategy
from repro.core.exceptions import ModelError, OptimizationError
from repro.core.exhaustive import ExhaustiveSearch
from repro.core.mapping import MappingAlgorithm
from repro.core.mapping_model import ProcessMapping
from repro.core.profile import ExecutionProfile
from repro.core.redundancy import POLICIES, RedundancyOpt
from repro.core.reexecution import ReExecutionOpt
from repro.core.sfp import SFPAnalysis
from repro.engine import EvaluationEngine
from repro.experiments.motivational import (
    fig1_application,
    fig1_node_types,
    fig1_profile,
    fig3_application,
    fig3_node_type,
    fig3_profile,
)


@pytest.fixture
def fig3_setup():
    application = fig3_application()
    node_type = fig3_node_type()
    profile = fig3_profile()
    architecture = Architecture([Node("N1", node_type)])
    mapping = ProcessMapping({"P1": "N1"})
    return application, architecture, mapping, profile


class TestRedundancyOptFig3:
    def test_selects_cheapest_schedulable_hardening(self, fig3_setup):
        """The paper chooses N1^2: h=3 costs twice as much for the same delay."""
        application, architecture, mapping, profile = fig3_setup
        decision = RedundancyOpt().optimize(application, architecture, mapping, profile)
        assert decision is not None
        assert decision.hardening == {"N1": 2}
        assert decision.reexecutions == {"N1": 2}
        assert decision.cost == 20.0
        assert decision.schedule_length == pytest.approx(340.0)
        assert decision.is_feasible

    def test_does_not_mutate_input_architecture(self, fig3_setup):
        application, architecture, mapping, profile = fig3_setup
        RedundancyOpt().optimize(application, architecture, mapping, profile)
        assert architecture.hardening_vector() == {"N1": 1}

    def test_infeasible_when_deadline_impossible(self, fig3_setup):
        from repro.core.application import Application, Process

        _, architecture, mapping, profile = fig3_setup
        # A 50 ms deadline cannot hold even the fastest h-version (80 ms WCET).
        tight_application = Application(
            name="tight",
            deadline=50.0,
            reliability_goal=1.0 - 1e-5,
            recovery_overhead=20.0,
            period=50.0,
        )
        tight_application.new_graph("G1").add_process(Process("P1"))
        decision = RedundancyOpt().optimize(tight_application, architecture, mapping, profile)
        assert decision is None


class TestRedundancyOptFig4:
    def test_mapping_4a_resolves_to_h2_on_both_nodes(self):
        """Section 6.1: the Fig. 4a mapping leads to N1^2/N2^2 with k=1 each."""
        application = fig1_application()
        n1, n2 = fig1_node_types()
        profile = fig1_profile()
        architecture = Architecture([Node("N1", n1), Node("N2", n2)])
        mapping = ProcessMapping({"P1": "N1", "P2": "N1", "P3": "N2", "P4": "N2"})
        decision = RedundancyOpt().optimize(application, architecture, mapping, profile)
        assert decision is not None
        assert decision.hardening == {"N1": 2, "N2": 2}
        assert decision.reexecutions == {"N1": 1, "N2": 1}
        assert decision.cost == 72.0
        assert decision.meets_deadline and decision.meets_reliability

    def test_monoprocessor_n1_mapping_is_discarded(self):
        """Section 6.1: mapping everything on N1 is unschedulable at any level."""
        application = fig1_application()
        n1, _ = fig1_node_types()
        profile = fig1_profile()
        architecture = Architecture([Node("N1", n1)])
        mapping = ProcessMapping({name: "N1" for name in ("P1", "P2", "P3", "P4")})
        decision = RedundancyOpt().optimize(application, architecture, mapping, profile)
        assert decision is None

    def test_monoprocessor_n2_mapping_needs_maximum_hardening(self):
        """Section 6.1: re-mapping everything to N2 forces the third level."""
        application = fig1_application()
        _, n2 = fig1_node_types()
        profile = fig1_profile()
        architecture = Architecture([Node("N2", n2)])
        mapping = ProcessMapping({name: "N2" for name in ("P1", "P2", "P3", "P4")})
        decision = RedundancyOpt().optimize(application, architecture, mapping, profile)
        assert decision is not None
        assert decision.hardening == {"N2": 3}
        assert decision.cost == 80.0


class TestLockedPolicies:
    def test_min_policy_keeps_minimum_levels(self, fig3_setup):
        application, architecture, mapping, profile = fig3_setup
        decision = RedundancyOpt("MIN").optimize(
            application, architecture, mapping, profile
        )
        # Fig. 3a: with the unhardened node the deadline cannot be met.
        assert decision is None

    def test_max_policy_uses_maximum_levels(self, fig3_setup):
        application, architecture, mapping, profile = fig3_setup
        decision = RedundancyOpt("MAX").optimize(
            application, architecture, mapping, profile
        )
        assert decision is not None
        assert decision.hardening == {"N1": 3}
        assert decision.cost == 40.0
        assert decision.reexecutions == {"N1": 1}

    @pytest.mark.parametrize("policy", ["median", "min", "max", "opt", ""])
    def test_unknown_policy_rejected(self, policy):
        with pytest.raises(OptimizationError, match="policy must be one of"):
            RedundancyOpt(policy)

    def test_default_policy_is_opt(self):
        assert RedundancyOpt().policy == "OPT"
        assert POLICIES == ("MIN", "MAX", "OPT")

    @pytest.mark.parametrize(
        "policy, level", [("MIN", 1), ("MAX", 3), ("OPT", 1)]
    )
    def test_initial_hardening_is_the_locked_or_starting_vector(
        self, fig3_setup, policy, level
    ):
        _, architecture, _, _ = fig3_setup
        assert RedundancyOpt(policy).initial_hardening(architecture) == {"N1": level}

    def test_decision_is_feasible_flag(self, fig3_setup):
        application, architecture, mapping, profile = fig3_setup
        decision = RedundancyOpt("MAX").optimize(
            application, architecture, mapping, profile
        )
        assert decision.is_feasible
        assert decision.meets_deadline
        assert decision.meets_reliability


class TestEvaluateHardening:
    def test_reports_infeasible_reliability_when_goal_unreachable(self, fig3_setup):
        application, architecture, mapping, _ = fig3_setup
        # A 90 % failure probability at h=1 keeps the goal out of reach
        # within MAX_REEXECUTIONS_PER_NODE re-executions.
        profile = ExecutionProfile()
        table = {1: (80.0, 0.9), 2: (100.0, 4e-4), 3: (160.0, 4e-6)}
        for level, (wcet, probability) in table.items():
            profile.add_entry("P1", "N1", level, wcet, probability)
        decision = RedundancyOpt().evaluate_hardening(
            application, architecture, mapping, profile, {"N1": 1}
        )
        assert not decision.meets_reliability
        assert decision.reexecutions == {"N1": 0}


# ----------------------------------------------------------------------
# the memoized optimize() shared by every redundancy optimizer
# ----------------------------------------------------------------------


@pytest.fixture
def fig4a_setup():
    application = fig1_application()
    n1, n2 = fig1_node_types()
    profile = fig1_profile()
    architecture = Architecture([Node("N1", n1), Node("N2", n2)])
    mapping = ProcessMapping({"P1": "N1", "P2": "N1", "P3": "N2", "P4": "N2"})
    return application, architecture, mapping, profile


@pytest.mark.parametrize("strategy", POLICIES)
def test_shared_engine_memo_returns_the_fresh_engine_decision(fig4a_setup, strategy):
    """On a shared engine the decision is memoized, never changed: the cold
    call equals the engine-free call (on its private engine) and a repeat is
    one memo hit."""
    application, architecture, mapping, profile = fig4a_setup
    plain = RedundancyOpt(strategy).optimize(application, architecture, mapping, profile)
    engine = EvaluationEngine(application, profile)
    optimizer = RedundancyOpt(strategy)
    cold = optimizer.optimize(application, architecture, mapping, profile, engine)
    assert cold == plain
    assert engine.optimizations.misses == 1
    assert optimizer.optimize(application, architecture, mapping, profile, engine) is cold
    assert engine.optimizations.hits == 1
    assert architecture.hardening_vector() == {"N1": 1, "N2": 1}


def test_policies_sharing_an_engine_do_not_collide(fig4a_setup):
    """MIN, MAX and OPT are one class; the policy is part of the memo key,
    so a shared engine serves each its own decision."""
    application, architecture, mapping, profile = fig4a_setup
    engine = EvaluationEngine(application, profile)
    expected = {
        policy: RedundancyOpt(policy).optimize(application, architecture, mapping, profile)
        for policy in POLICIES
    }
    assert expected["MIN"] != expected["MAX"]
    for _ in range(2):
        for policy in POLICIES:
            decision = RedundancyOpt(policy).optimize(
                application, architecture, mapping, profile, engine
            )
            assert decision == expected[policy]
    assert engine.optimizations.misses == 3
    assert engine.optimizations.hits == 3


def test_partial_hardening_vector_is_rejected(fig4a_setup):
    """The memo key reads a hardening vector as the level of every node, so
    a vector that leaves a node out is an error, not a bypass."""
    application, architecture, mapping, profile = fig4a_setup
    with pytest.raises(ModelError, match="must name every node"):
        RedundancyOpt().evaluate_hardening(
            application, architecture, mapping, profile, {"N1": 2}
        )


#: Every DSE entry point that takes an engine, called on the Fig. 4a setup.
FOREIGN_ENGINE_CALLS = {
    "DesignStrategy.explore": lambda app, arch, mapping, prof, engine: DesignStrategy(
        fig1_node_types()
    ).explore(app, prof, engine=engine),
    "MappingAlgorithm.optimize": lambda app, arch, mapping, prof, engine: MappingAlgorithm().optimize(
        app, arch, prof, engine=engine
    ),
    "RedundancyOpt.optimize": lambda app, arch, mapping, prof, engine: RedundancyOpt().optimize(
        app, arch, mapping, prof, engine=engine
    ),
    "RedundancyOpt[MAX].optimize": lambda app, arch, mapping, prof, engine: (
        RedundancyOpt("MAX").optimize(app, arch, mapping, prof, engine=engine)
    ),
    "RedundancyOpt.evaluate_hardening": lambda app, arch, mapping, prof, engine: (
        RedundancyOpt().evaluate_hardening(
            app, arch, mapping, prof, {"N1": 2, "N2": 2}, engine=engine
        )
    ),
    "ReExecutionOpt.optimize": lambda app, arch, mapping, prof, engine: ReExecutionOpt().optimize(
        app, arch, mapping, prof, engine=engine
    ),
    "SFPAnalysis": lambda app, arch, mapping, prof, engine: SFPAnalysis(
        app, arch, mapping, prof, engine=engine
    ),
    "ExhaustiveSearch.explore": lambda app, arch, mapping, prof, engine: ExhaustiveSearch(
        fig1_node_types()
    ).explore(app, prof, engine=engine),
}


@pytest.mark.parametrize("entry_point", sorted(FOREIGN_ENGINE_CALLS))
def test_engine_bound_to_another_context_raises(fig4a_setup, entry_point):
    """An engine's memo keys do not encode its (application, profile), so
    an engine of another context is refused at every entry point instead of
    being used (aliasing) or silently bypassed."""
    application, architecture, mapping, profile = fig4a_setup
    foreign = EvaluationEngine(fig3_application(), fig3_profile())
    with pytest.raises(ValueError, match="'fig3'.*'fig1'"):
        FOREIGN_ENGINE_CALLS[entry_point](
            application, architecture, mapping, profile, foreign
        )
    assert foreign.stats.hits == foreign.stats.misses == 0
    assert foreign.evaluations == 0


#: The Fig. 4a design point's architecture and mapping fingerprints.
FIG4A_ARCHITECTURE_KEY = (("N1", "N1"), ("N2", "N2"))
FIG4A_MAPPING_KEY = (("P1", "N1"), ("P2", "N1"), ("P3", "N2"), ("P4", "N2"))


def test_decision_key_is_pinned(fig4a_setup):
    """A stored decision's key, as a literal: (architecture, mapping, hardening).

    A store written by an earlier tree is only read back while the keys stay
    the same, so any change to them must be deliberate.
    """
    application, architecture, mapping, profile = fig4a_setup
    engine = EvaluationEngine(application, profile)
    RedundancyOpt().evaluate_hardening(
        application, architecture, mapping, profile, {"N1": 2, "N2": 2}, engine=engine
    )
    assert list(engine.decisions.snapshot()) == [
        (FIG4A_ARCHITECTURE_KEY, FIG4A_MAPPING_KEY, (("N1", 2), ("N2", 2)))
    ]


@pytest.mark.parametrize("policy", POLICIES)
def test_optimization_key_is_pinned(fig4a_setup, policy):
    """A stored optimization's key: policy, architecture, mapping."""
    application, architecture, mapping, profile = fig4a_setup
    engine = EvaluationEngine(application, profile)
    RedundancyOpt(policy).optimize(application, architecture, mapping, profile, engine=engine)
    assert list(engine.optimizations.snapshot()) == [
        (policy, FIG4A_ARCHITECTURE_KEY, FIG4A_MAPPING_KEY)
    ]
