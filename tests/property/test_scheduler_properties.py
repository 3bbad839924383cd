"""Property-based tests for the list scheduler and recovery slack."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.application import Application, Message, Process
from repro.core.architecture import Architecture, HVersion, Node, NodeType
from repro.core.mapping_model import ProcessMapping
from repro.core.profile import ExecutionProfile
from repro.scheduling.list_scheduler import ListScheduler
from repro.scheduling.slack import shared_recovery_slack


# ----------------------------------------------------------------------
# Random chain applications: P1 -> P2 -> ... -> Pn mapped round-robin on two
# nodes.  Chains keep the generation simple while still exercising bus
# messages, node contention and slack accounting.
# ----------------------------------------------------------------------
@st.composite
def chain_problems(draw):
    n_processes = draw(st.integers(min_value=1, max_value=8))
    wcets = draw(
        st.lists(
            st.floats(min_value=1.0, max_value=30.0, allow_nan=False),
            min_size=n_processes,
            max_size=n_processes,
        )
    )
    message_time = draw(st.floats(min_value=0.0, max_value=5.0, allow_nan=False))
    budgets = (
        draw(st.integers(min_value=0, max_value=3)),
        draw(st.integers(min_value=0, max_value=3)),
    )

    application = Application(
        "prop", deadline=10_000.0, reliability_goal=0.9, recovery_overhead=1.0
    )
    graph = application.new_graph("G")
    previous = None
    for index, wcet in enumerate(wcets, start=1):
        process = graph.add_process(Process(f"P{index}", nominal_wcet=wcet))
        if previous is not None:
            graph.add_message(
                Message(f"m{index}", previous.name, process.name, transmission_time=message_time)
            )
        previous = process

    node_types = [
        NodeType("NA", [HVersion(1, 1.0)]),
        NodeType("NB", [HVersion(1, 1.0)]),
    ]
    profile = ExecutionProfile()
    for process in application.processes():
        for node_type in node_types:
            profile.add_entry(process.name, node_type.name, 1, process.nominal_wcet, 1e-6)
    architecture = Architecture([Node("NA", node_types[0]), Node("NB", node_types[1])])
    mapping = ProcessMapping(
        {
            process.name: ("NA" if index % 2 == 0 else "NB")
            for index, process in enumerate(application.processes())
        }
    )
    reexecutions = {"NA": budgets[0], "NB": budgets[1]}
    return application, architecture, mapping, profile, reexecutions


class TestSchedulerProperties:
    @given(chain_problems())
    @settings(max_examples=40, deadline=None)
    def test_schedule_is_structurally_valid(self, problem):
        application, architecture, mapping, profile, reexecutions = problem
        schedule = ListScheduler().schedule(
            application, architecture, mapping, profile, reexecutions
        )
        schedule.validate()

    @given(chain_problems())
    @settings(max_examples=40, deadline=None)
    def test_all_processes_scheduled_exactly_once(self, problem):
        application, architecture, mapping, profile, reexecutions = problem
        schedule = ListScheduler().schedule(
            application, architecture, mapping, profile, reexecutions
        )
        scheduled = {entry.process for entry in schedule.processes}
        assert scheduled == set(application.process_names())

    @given(chain_problems())
    @settings(max_examples=40, deadline=None)
    def test_precedence_constraints_hold(self, problem):
        application, architecture, mapping, profile, reexecutions = problem
        schedule = ListScheduler().schedule(
            application, architecture, mapping, profile, reexecutions
        )
        for graph in application.graphs:
            for message in graph.messages:
                assert (
                    schedule.entry(message.destination).start
                    >= schedule.entry(message.source).finish - 1e-9
                )

    @given(chain_problems())
    @settings(max_examples=40, deadline=None)
    def test_length_at_least_fault_free_and_total_work_bound(self, problem):
        application, architecture, mapping, profile, reexecutions = problem
        schedule = ListScheduler().schedule(
            application, architecture, mapping, profile, reexecutions
        )
        assert schedule.length >= schedule.fault_free_length - 1e-9
        total_work = sum(process.nominal_wcet for process in application.processes())
        # A single chain cannot finish before the longest node's share of work.
        per_node_work = {
            node.name: sum(
                profile.wcet_on_node(process, node)
                for process in mapping.processes_on(node.name)
            )
            for node in architecture
        }
        assert schedule.fault_free_length >= max(per_node_work.values()) - 1e-9
        assert schedule.fault_free_length <= total_work + sum(
            message.transmission_time for message in application.messages()
        ) + 1e-6

    @given(chain_problems())
    @settings(max_examples=40, deadline=None)
    def test_more_reexecutions_never_shorten_the_schedule(self, problem):
        application, architecture, mapping, profile, reexecutions = problem
        schedule = ListScheduler().schedule(
            application, architecture, mapping, profile, reexecutions
        )
        increased = {node: budget + 1 for node, budget in reexecutions.items()}
        longer = ListScheduler().schedule(
            application, architecture, mapping, profile, increased
        )
        assert longer.length >= schedule.length - 1e-9

    @given(chain_problems())
    @settings(max_examples=40, deadline=None)
    def test_node_slack_covers_the_worst_single_victim(self, problem):
        application, architecture, mapping, profile, reexecutions = problem
        schedule = ListScheduler().schedule(
            application, architecture, mapping, profile, reexecutions
        )
        for node in architecture.node_names:
            entries = schedule.processes_on(node)
            worst = max(
                (
                    entry.duration + application.recovery_overhead_of(entry.process)
                    for entry in entries
                ),
                default=0.0,
            )
            expected = reexecutions.get(node, 0) * worst
            assert schedule.node_recovery_slack[node] == pytest.approx(expected)


class TestSlackFunctionProperties:
    pairs = st.lists(
        st.tuples(
            st.floats(min_value=0.1, max_value=50.0, allow_nan=False),
            st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
        ),
        min_size=0,
        max_size=10,
    )

    @given(pairs, st.integers(min_value=0, max_value=5))
    def test_shared_never_exceeds_naive(self, values, budget):
        naive = budget * sum(time + overhead for time, overhead in values)
        assert shared_recovery_slack(values, budget) <= naive + 1e-9

    @given(pairs, st.integers(min_value=0, max_value=5))
    def test_slack_monotone_in_budget(self, values, budget):
        assert shared_recovery_slack(values, budget + 1) >= shared_recovery_slack(values, budget)

    @given(pairs, st.integers(min_value=0, max_value=5))
    def test_slack_non_negative(self, values, budget):
        assert shared_recovery_slack(values, budget) >= 0.0
