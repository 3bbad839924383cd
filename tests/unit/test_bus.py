"""Unit tests for the shared bus's first-come-first-served arbitration.

The rule lives in the reference scheduler kernel's gap search
(``earliest_gap``, applied by ``grant``); the same rules are checked once
more through ``ListScheduler`` on the production kernel.
"""

from __future__ import annotations

import pytest

from repro.core.application import Application, Message, Process
from repro.core.architecture import Architecture, HVersion, Node, NodeType
from repro.core.mapping_model import ProcessMapping
from repro.core.profile import ExecutionProfile
from repro.kernels.sched_flat import FlatSchedulerKernel
from repro.kernels.sched_reference import earliest_gap, grant
from repro.scheduling.list_scheduler import ListScheduler

from tests.conftest import SCHED_BACKENDS, production_kernels


class TestGrant:
    def test_first_message_starts_at_earliest(self):
        windows = []
        assert grant(windows, 5.0, 3.0) == (5.0, 8.0)

    def test_messages_are_serialized(self):
        assert earliest_gap([(0.0, 10.0)], 2.0, 5.0) == 10.0

    def test_message_can_fill_gap_before_existing_reservation(self):
        windows = [(20.0, 30.0)]
        assert grant(windows, 0.0, 5.0) == (0.0, 5.0)

    def test_message_too_large_for_gap_is_pushed_after(self):
        assert earliest_gap([(4.0, 14.0)], 0.0, 5.0) == 14.0

    def test_zero_duration_message(self):
        windows = []
        assert grant(windows, 1.0, 0.0) == (1.0, 1.0)

    def test_reservations_sorted_by_start(self):
        windows = []
        grant(windows, 50.0, 5.0)
        grant(windows, 0.0, 5.0)
        starts = [start for start, _ in windows]
        assert starts == sorted(starts)


class TestReservationOrderInvariant:
    """``earliest_gap`` scans in start order and stops at the first fitting
    gap, so ``grant`` must keep the window list sorted by start time."""

    def test_gap_filling_keeps_list_sorted(self):
        windows = []
        # Grant windows out of start order: [40,50), [0,5), [20,28), [5,10).
        grant(windows, 40.0, 10.0)
        grant(windows, 0.0, 5.0)
        grant(windows, 20.0, 8.0)
        grant(windows, 2.0, 5.0)
        assert windows == [(0.0, 5.0), (5.0, 10.0), (20.0, 28.0), (40.0, 50.0)]

    def test_scan_relies_on_sorted_order(self):
        windows = []
        grant(windows, 40.0, 10.0)
        grant(windows, 0.0, 5.0)
        # A 15 ms message ready at t=0 fits the [5, 40) gap — the early-exit
        # scan only sees this gap if the list is ordered by start.
        assert grant(windows, 0.0, 15.0) == (5.0, 20.0)

    def test_zero_duration_ties_keep_insertion_order(self):
        # Windows with equal starts stay in grant order, whatever their
        # finish: the zero-duration [10,10) granted last sorts after [10,15).
        windows = []
        grant(windows, 10.0, 0.0)
        grant(windows, 10.0, 5.0)
        grant(windows, 10.0, 0.0)
        assert windows == [(10.0, 10.0), (10.0, 15.0), (10.0, 10.0)]


def _message_windows(messages, kernel):
    """Bus windows ``ListScheduler`` grants for independent sender pairs.

    ``messages`` lists ``(ready, duration)`` per message, in grant order:
    message ``m<i>`` runs from ``S<i>`` (WCET ``ready``) on node ``NS<i>``
    to ``R<i>`` on node ``NR<i>``.  Every producer sits in the first layer
    and every consumer in the second, and the consumers' WCETs fall with
    ``i``, so consumer priority — and with it the grant order — follows the
    list.
    """
    application = Application(
        "fcfs", deadline=10_000.0, reliability_goal=0.9, recovery_overhead=0.0
    )
    graph = application.new_graph("G")
    node_type = NodeType("T", [HVersion(1, 1.0)])
    profile = ExecutionProfile()
    nodes, assignment = [], {}
    for i, (ready, duration) in enumerate(messages):
        consumer_wcet = 10.0 * (len(messages) - i)
        for process, wcet, node in (
            (f"S{i}", ready, f"NS{i}"),
            (f"R{i}", consumer_wcet, f"NR{i}"),
        ):
            graph.add_process(Process(process, nominal_wcet=wcet))
            profile.add_entry(process, "T", 1, wcet, 1e-6)
            nodes.append(Node(node, node_type))
            assignment[process] = node
        graph.add_message(Message(f"m{i}", f"S{i}", f"R{i}", transmission_time=duration))
    with production_kernels(sched=kernel):
        schedule = ListScheduler().schedule(
            application, Architecture(nodes), ProcessMapping(assignment), profile
        )
    schedule.validate()
    return [
        (entry.start, entry.finish)
        for entry in (schedule.message_entry(f"m{i}") for i in range(len(messages)))
    ]


class TestFCFSRulesOnTheProductionKernel:
    """The grant rules above, through ``ListScheduler`` on the ``flat`` kernel."""

    def _windows(self, *messages):
        return _message_windows(messages, FlatSchedulerKernel())

    def test_message_starts_when_its_data_is_ready(self):
        assert self._windows((2.0, 5.0)) == [(2.0, 7.0)]

    def test_message_is_serialized_behind_a_held_window(self):
        assert self._windows((2.0, 5.0), (3.0, 5.0)) == [(2.0, 7.0), (7.0, 12.0)]

    def test_message_fills_an_earlier_gap(self):
        assert self._windows((20.0, 10.0), (1.0, 5.0)) == [(20.0, 30.0), (1.0, 6.0)]

    def test_message_too_large_for_the_gap_is_pushed_after(self):
        assert self._windows((20.0, 10.0), (1.0, 25.0)) == [(20.0, 30.0), (30.0, 55.0)]

    def test_zero_duration_message(self):
        assert self._windows((20.0, 10.0), (1.0, 0.0)) == [(20.0, 30.0), (1.0, 1.0)]

    def test_zero_duration_message_is_pushed_past_a_held_window(self):
        assert self._windows((2.0, 10.0), (5.0, 0.0)) == [(2.0, 12.0), (12.0, 12.0)]

    def test_gap_filling_after_a_zero_duration_window(self):
        # The zero-duration window drops the kernel to the full scan, which
        # must still find the [1, 20) gap.
        assert self._windows((20.0, 10.0), (1.0, 0.0), (1.0, 5.0)) == [
            (20.0, 30.0), (1.0, 1.0), (1.0, 6.0)
        ]


@pytest.mark.parametrize("name", list(SCHED_BACKENDS))
def test_message_exactly_filling_a_gap_takes_it(name):
    """``ready + duration == next window start`` fits: the windows touch."""
    windows = _message_windows([(20.0, 10.0), (1.0, 19.0)], SCHED_BACKENDS[name])
    assert windows == [(20.0, 30.0), (1.0, 20.0)]
