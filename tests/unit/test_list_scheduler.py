"""Unit tests for the list scheduler with recovery slack."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.application import Application, Message, Process
from repro.core.architecture import Architecture, HVersion, Node, NodeType
from repro.core.exceptions import ModelError, SchedulingError
from repro.core.mapping_model import ProcessMapping
from repro.scheduling.list_scheduler import ListScheduler

from tests.conftest import build_diamond_application, uniform_profile_for


class TestFig4aSchedule:
    """The Fig. 4a schedule: the numbers the paper draws."""

    def test_root_schedule_and_slack(self, fig1_app, fig1_prof, fig4a_architecture, fig4a_mapping):
        schedule = ListScheduler().schedule(
            fig1_app, fig4a_architecture, fig4a_mapping, fig1_prof, {"N1": 1, "N2": 1}
        )
        schedule.validate()
        assert schedule.entry("P1").start == 0.0
        assert schedule.entry("P1").finish == 75.0
        assert schedule.entry("P2").finish == 165.0
        # P3 waits for message m2 (10 ms on the bus after P1 finishes).
        assert schedule.entry("P3").start == 85.0
        # P4 waits for m3 from P2 (arrives 175) on N2.
        assert schedule.entry("P4").start == 175.0
        assert schedule.node_recovery_slack["N1"] == pytest.approx(105.0)
        assert schedule.node_recovery_slack["N2"] == pytest.approx(90.0)
        assert schedule.length == pytest.approx(340.0)
        assert schedule.meets_deadline(360.0)

    def test_intra_node_message_takes_no_bus_time(
        self, fig1_app, fig1_prof, fig4a_architecture, fig4a_mapping
    ):
        schedule = ListScheduler().schedule(
            fig1_app, fig4a_architecture, fig4a_mapping, fig1_prof, {"N1": 1, "N2": 1}
        )
        # m1 (P1 -> P2) and m4 (P3 -> P4) stay node-local.
        assert not schedule.has_message("m1")
        assert not schedule.has_message("m4")
        assert schedule.has_message("m2")
        assert schedule.has_message("m3")


class TestSchedulerBasics:
    def _single_node_problem(self):
        application = build_diamond_application(message_time=2.0)
        node_type = NodeType("N", [HVersion(1, 1.0)])
        profile = uniform_profile_for(application, [node_type])
        architecture = Architecture([Node("N", node_type)])
        mapping = ProcessMapping({name: "N" for name in ("A", "B", "C", "D")})
        return application, architecture, mapping, profile

    def test_single_node_schedule_is_serial(self):
        application, architecture, mapping, profile = self._single_node_problem()
        schedule = ListScheduler().schedule(application, architecture, mapping, profile)
        schedule.validate()
        assert schedule.fault_free_length == pytest.approx(10 + 20 + 15 + 12)
        assert schedule.messages == []

    def test_zero_budget_means_zero_slack(self):
        application, architecture, mapping, profile = self._single_node_problem()
        schedule = ListScheduler().schedule(application, architecture, mapping, profile)
        assert schedule.node_recovery_slack == {"N": 0.0}
        assert schedule.length == schedule.fault_free_length

    def test_precedence_respected_across_nodes(self, diamond_app, two_node_types):
        profile = uniform_profile_for(diamond_app, two_node_types)
        architecture = Architecture(
            [Node("NA", two_node_types[0]), Node("NB", two_node_types[1])]
        )
        mapping = ProcessMapping({"A": "NA", "B": "NB", "C": "NA", "D": "NB"})
        schedule = ListScheduler().schedule(diamond_app, architecture, mapping, profile)
        schedule.validate()
        for message in diamond_app.graphs[0].messages:
            producer = schedule.entry(message.source)
            consumer = schedule.entry(message.destination)
            assert consumer.start >= producer.finish

    def test_cross_node_messages_delay_consumers(self, diamond_app, two_node_types):
        profile = uniform_profile_for(diamond_app, two_node_types)
        architecture = Architecture(
            [Node("NA", two_node_types[0]), Node("NB", two_node_types[1])]
        )
        mapping = ProcessMapping({"A": "NA", "B": "NB", "C": "NA", "D": "NB"})
        schedule = ListScheduler().schedule(diamond_app, architecture, mapping, profile)
        message = schedule.message_entry("mAB")
        assert message.start >= schedule.entry("A").finish
        assert schedule.entry("B").start >= message.finish

    def test_unknown_budget_node_rejected(self, diamond_app, two_node_types):
        profile = uniform_profile_for(diamond_app, two_node_types)
        architecture = Architecture([Node("NA", two_node_types[0])])
        mapping = ProcessMapping({name: "NA" for name in ("A", "B", "C", "D")})
        with pytest.raises(SchedulingError):
            ListScheduler().schedule(
                diamond_app, architecture, mapping, profile, {"NX": 1}
            )

    def test_negative_budget_rejected(self, diamond_app, two_node_types):
        profile = uniform_profile_for(diamond_app, two_node_types)
        architecture = Architecture([Node("NA", two_node_types[0])])
        mapping = ProcessMapping({name: "NA" for name in ("A", "B", "C", "D")})
        with pytest.raises(SchedulingError):
            ListScheduler().schedule(
                diamond_app, architecture, mapping, profile, {"NA": -1}
            )

    @pytest.mark.parametrize("budget", [1.5, 1.999, True])
    @pytest.mark.parametrize("entry_point", ["schedule", "worst_case_length"])
    def test_non_integer_budget_rejected(
        self, diamond_app, two_node_types, entry_point, budget
    ):
        profile = uniform_profile_for(diamond_app, two_node_types)
        architecture = Architecture([Node("NA", two_node_types[0])])
        mapping = ProcessMapping({name: "NA" for name in ("A", "B", "C", "D")})
        with pytest.raises(SchedulingError, match="must be an integer"):
            getattr(ListScheduler(), entry_point)(
                diamond_app, architecture, mapping, profile, {"NA": budget}
            )

    def test_integral_budget_types_accepted(self, diamond_app, two_node_types):
        profile = uniform_profile_for(diamond_app, two_node_types)
        architecture = Architecture([Node("NA", two_node_types[0])])
        mapping = ProcessMapping({name: "NA" for name in ("A", "B", "C", "D")})
        scheduler = ListScheduler()
        expected = scheduler.schedule(diamond_app, architecture, mapping, profile, {"NA": 2})
        produced = scheduler.schedule(
            diamond_app, architecture, mapping, profile, {"NA": np.int64(2)}
        )
        assert produced == expected
        assert produced.reexecutions == {"NA": 2}
        assert type(produced.reexecutions["NA"]) is int

    def test_worst_case_length_is_the_schedule_length(
        self, fig1_app, fig1_prof, fig4a_architecture, fig4a_mapping
    ):
        scheduler = ListScheduler()
        for budgets in ({}, {"N1": 1}, {"N1": 2, "N2": 1}):
            length = scheduler.worst_case_length(
                fig1_app, fig4a_architecture, fig4a_mapping, fig1_prof, budgets
            )
            schedule = scheduler.schedule(
                fig1_app, fig4a_architecture, fig4a_mapping, fig1_prof, budgets
            )
            assert length == schedule.length

    def test_incomplete_mapping_rejected(self, diamond_app, two_node_types):
        profile = uniform_profile_for(diamond_app, two_node_types)
        architecture = Architecture([Node("NA", two_node_types[0])])
        mapping = ProcessMapping({"A": "NA"})
        with pytest.raises(Exception):
            ListScheduler().schedule(diamond_app, architecture, mapping, profile)

    def test_deterministic_output(self, diamond_app, two_node_types):
        profile = uniform_profile_for(diamond_app, two_node_types)
        architecture = Architecture(
            [Node("NA", two_node_types[0]), Node("NB", two_node_types[1])]
        )
        mapping = ProcessMapping({"A": "NA", "B": "NB", "C": "NA", "D": "NB"})
        first = ListScheduler().schedule(diamond_app, architecture, mapping, profile)
        second = ListScheduler().schedule(diamond_app, architecture, mapping, profile)
        assert [(e.process, e.start, e.finish) for e in first.processes] == [
            (e.process, e.start, e.finish) for e in second.processes
        ]


class TestSharedSlack:
    def test_slack_covers_the_worst_single_victim(
        self, fig1_app, fig1_prof, fig4a_architecture, fig4a_mapping
    ):
        budgets = {"N1": 1, "N2": 1}
        schedule = ListScheduler().schedule(
            fig1_app, fig4a_architecture, fig4a_mapping, fig1_prof, budgets
        )
        # P1 (75) and P2 (90) share N1's slack: one recovery of the longer,
        # not one of each (75 + 15 + 90 + 15).
        assert schedule.node_recovery_slack["N1"] == pytest.approx(90 + 15)
        assert schedule.length >= schedule.node_completion("N1") + 90 + 15


def _diamond_with_messages(messages) -> Application:
    """The diamond application built directly with ``messages`` in order."""
    application = Application(
        name="diamond", deadline=200.0, reliability_goal=1.0 - 1e-5, recovery_overhead=5.0
    )
    graph = application.new_graph("G")
    for name, wcet in (("A", 10.0), ("B", 20.0), ("C", 15.0), ("D", 12.0)):
        graph.add_process(Process(name, nominal_wcet=wcet))
    for message in messages:
        graph.add_message(message)
    return application


class TestStructureMemoInvalidation:
    """In-place graph edits are construction: allowed until the first schedule.

    The flat kernel's compiled tables (layers and incoming messages among
    them) key on the application's identity alone.  That is sound because every
    schedule call freezes the application: an edit made before it is seen
    like a freshly built application, and the same edit after it raises
    instead of leaving the memo stale.  Each case covers an edit that keeps
    the process and message counts, which a count-based guard once missed.
    """

    def _two_node_problem(self, application):
        node_type = NodeType("N", [HVersion(1, 1.0)])
        other = NodeType("M", [HVersion(1, 1.0)])
        profile = uniform_profile_for(application, [node_type, other])
        architecture = Architecture([Node("NA", node_type), Node("NB", other)])
        mapping = ProcessMapping({"A": "NA", "B": "NB", "C": "NA", "D": "NB"})
        return architecture, mapping, profile

    def _check_edit(self, edit, fresh_messages):
        """Schedule an application edited in place, compare it with one built
        fresh on the same scheduler, then show the edit raises once bound.
        Returns the edited schedule and the unedited one."""
        scheduler = ListScheduler()
        edited_app = build_diamond_application(message_time=2.0)
        edit(next(iter(edited_app.graphs)))
        edited = scheduler.schedule(edited_app, *self._two_node_problem(edited_app))
        fresh_app = _diamond_with_messages(fresh_messages)
        assert scheduler.schedule(fresh_app, *self._two_node_problem(fresh_app)) == edited

        bound_app = build_diamond_application(message_time=2.0)
        original = scheduler.schedule(bound_app, *self._two_node_problem(bound_app))
        graph = next(iter(bound_app.graphs))
        with pytest.raises(ModelError, match="Task graph G is read-only"):
            edit(graph)
        assert scheduler.schedule(bound_app, *self._two_node_problem(bound_app)) == original
        assert edited != original
        return edited, original

    def test_rewired_edge_yields_fresh_schedule(self):
        # Rewire B -> D into A -> D: same process and message counts, but D
        # now depends on A, putting a new message (from another node) on the
        # bus.
        def rewire(graph):
            graph.remove_message("B", "D")
            graph.add_message(Message("mAD", "A", "D", transmission_time=2.0))

        edited, _ = self._check_edit(rewire, [
            Message("mAB", "A", "B", transmission_time=2.0),
            Message("mAC", "A", "C", transmission_time=2.0),
            Message("mCD", "C", "D", transmission_time=2.0),
            Message("mAD", "A", "D", transmission_time=2.0),
        ])
        assert edited.has_message("mAD")
        assert not edited.has_message("mBD")

    def test_renamed_message_yields_fresh_schedule(self):
        def rename(graph):
            removed = graph.remove_message("A", "B")
            graph.add_message(
                Message("renamed", "A", "B", transmission_time=removed.transmission_time)
            )

        edited, original = self._check_edit(rename, [
            Message("mAC", "A", "C", transmission_time=2.0),
            Message("mBD", "B", "D", transmission_time=2.0),
            Message("mCD", "C", "D", transmission_time=2.0),
            Message("renamed", "A", "B", transmission_time=2.0),
        ])
        assert original.has_message("mAB")
        assert edited.has_message("renamed")
        assert not edited.has_message("mAB")

    def test_changed_transmission_time_yields_fresh_schedule(self):
        def retime(graph):
            graph.remove_message("A", "B")
            graph.add_message(Message("mAB", "A", "B", transmission_time=9.0))

        edited, _ = self._check_edit(retime, [
            Message("mAC", "A", "C", transmission_time=2.0),
            Message("mBD", "B", "D", transmission_time=2.0),
            Message("mCD", "C", "D", transmission_time=2.0),
            Message("mAB", "A", "B", transmission_time=9.0),
        ])
        assert edited.message_entry("mAB").duration == 9.0
