"""Integration test: the cruise-controller case study (Section 7).

The paper's findings for the CC application: the MIN strategy (software fault
tolerance only) cannot produce a schedulable implementation, MAX and OPT can,
and OPT is substantially (about 66 %) cheaper than MAX.  The absolute saving
depends on the reconstructed task graph; the test asserts the qualitative
findings plus a sizeable saving.
"""

from __future__ import annotations

import pytest

from repro.experiments.cruise_control import (
    CC_DEADLINE,
    CC_PROCESS_TABLE,
    cruise_controller_application,
    cruise_controller_node_types,
    cruise_controller_profile,
    relative_cost_saving,
    run_cruise_controller_study,
)


class TestCruiseControllerModel:
    def test_has_32_processes(self):
        application = cruise_controller_application()
        assert application.number_of_processes() == 32
        assert len(CC_PROCESS_TABLE) == 32

    def test_three_ecus_with_five_hardening_levels(self):
        node_types = cruise_controller_node_types()
        assert [node_type.name for node_type in node_types] == ["ETM", "ABS", "TCM"]
        assert all(node_type.max_hardening == 5 for node_type in node_types)

    def test_linear_cost_functions(self):
        for node_type in cruise_controller_node_types():
            base = node_type.cost(1)
            for level in node_type.hardening_levels:
                assert node_type.cost(level) == pytest.approx(base * level)

    def test_profile_covers_all_processes_and_levels(self):
        application = cruise_controller_application()
        node_types = cruise_controller_node_types()
        profile = cruise_controller_profile(application, node_types)
        profile.validate_against(application, node_types)

    def test_graph_is_acyclic_with_sensors_as_sources(self):
        application = cruise_controller_application()
        graph = application.graphs[0]
        sources = set(graph.sources())
        assert "read_speed_sensor" in sources
        assert "throttle_command" in graph.sinks()

    def test_relative_cost_saving(self):
        assert relative_cost_saving(17.0, 50.0) == pytest.approx(0.66)
        assert relative_cost_saving(50.0, 50.0) == 0.0
        assert relative_cost_saving(60.0, 50.0) == 0.0
        assert relative_cost_saving(10.0, 0.0) == 0.0

    def test_deadline_and_reliability_goal(self):
        application = cruise_controller_application()
        assert application.deadline == CC_DEADLINE == 300.0
        assert application.gamma == pytest.approx(1.2e-5)


class TestCruiseControllerStudy:
    @pytest.fixture(scope="class")
    def study(self):
        return run_cruise_controller_study()

    def test_min_strategy_is_unschedulable(self, study):
        assert not study.outcomes["MIN"].schedulable
        # The fallback report still shows how far past the deadline MIN lands.
        assert study.outcomes["MIN"].schedule_length > CC_DEADLINE

    def test_max_strategy_is_schedulable(self, study):
        outcome = study.outcomes["MAX"]
        assert outcome.schedulable
        assert outcome.schedule_length <= CC_DEADLINE
        assert set(outcome.hardening.values()) == {5}
        assert outcome.cost == pytest.approx(50.0)

    def test_opt_strategy_is_schedulable_and_cheaper(self, study):
        opt = study.outcomes["OPT"]
        maximum = study.outcomes["MAX"]
        assert opt.schedulable
        assert opt.schedule_length <= CC_DEADLINE
        assert opt.cost < maximum.cost

    def test_opt_saving_is_substantial(self, study):
        # The paper reports 66 %; the reconstructed graph gives a saving in the
        # same regime (at least half of the MAX cost).
        assert study.opt_saving_vs_max >= 0.5

    def test_opt_uses_intermediate_hardening(self, study):
        levels = set(study.outcomes["OPT"].hardening.values())
        assert max(levels) < 5
        assert sum(study.outcomes["OPT"].reexecutions.values()) >= 1
