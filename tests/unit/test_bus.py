"""Unit tests for the shared-bus models and their arbitration rules.

The bus classes are configuration; the arbitration rules live in the
reference scheduler kernel's gap searches (``earliest_gap`` for the
``SimpleBus``, ``tdma_window`` for the ``TDMABus``, both applied by
``grant``).  The TDMA slot rules are checked once more through
``ListScheduler`` on the production kernel.
"""

from __future__ import annotations

import pytest

from repro.comm.bus import SimpleBus, TDMABus
from repro.core.application import Application, Message, Process
from repro.core.architecture import Architecture, HVersion, Node, NodeType
from repro.core.exceptions import ModelError, SchedulingError
from repro.core.mapping_model import ProcessMapping
from repro.core.profile import ExecutionProfile
from repro.kernels.sched_flat import FlatSchedulerKernel
from repro.kernels.sched_reference import earliest_gap, grant, tdma_window
from repro.scheduling.list_scheduler import ListScheduler


class TestSimpleBus:
    def test_first_message_starts_at_earliest(self):
        windows = []
        assert grant(windows, SimpleBus(), "N1", 5.0, 3.0) == (5.0, 8.0)

    def test_messages_are_serialized(self):
        assert earliest_gap([(0.0, 10.0)], 2.0, 5.0) == 10.0

    def test_message_can_fill_gap_before_existing_reservation(self):
        windows = [(20.0, 30.0)]
        assert grant(windows, SimpleBus(), "N2", 0.0, 5.0) == (0.0, 5.0)

    def test_message_too_large_for_gap_is_pushed_after(self):
        assert earliest_gap([(4.0, 14.0)], 0.0, 5.0) == 14.0

    def test_zero_duration_message(self):
        windows = []
        assert grant(windows, SimpleBus(), "N1", 1.0, 0.0) == (1.0, 1.0)

    def test_reservations_sorted_by_start(self):
        bus = SimpleBus()
        windows = []
        grant(windows, bus, "N1", 50.0, 5.0)
        grant(windows, bus, "N1", 0.0, 5.0)
        starts = [start for start, _ in windows]
        assert starts == sorted(starts)

    def test_signature(self):
        assert SimpleBus().signature() == ("SimpleBus",)


class TestTDMABus:
    def test_slot_order_validation(self):
        with pytest.raises(ModelError):
            TDMABus([], slot_length=10.0)
        with pytest.raises(ModelError):
            TDMABus(["N1", "N1"], slot_length=10.0)
        with pytest.raises(ValueError):
            TDMABus(["N1"], slot_length=0.0)

    def test_round_length(self):
        bus = TDMABus(["N1", "N2", "N3"], slot_length=10.0)
        assert bus.round_length == 30.0

    def test_signature(self):
        bus = TDMABus(["N1", "N2"], slot_length=2.0)
        assert bus.signature() == ("TDMABus", ("N1", "N2"), 2.0)

    def test_unknown_sender_rejected(self):
        bus = TDMABus(["N1"], slot_length=10.0)
        with pytest.raises(SchedulingError, match="owns no TDMA slot"):
            tdma_window([], bus, "N9", 0.0, 5.0)

    def test_message_waits_for_its_senders_slot(self):
        bus = TDMABus(["N1", "N2"], slot_length=10.0)
        # N2 owns [10, 20), [30, 40), ...; data ready at t=0 must wait.
        assert tdma_window([], bus, "N2", 0.0, 5.0) == 10.0

    def test_message_in_own_slot_starts_immediately(self):
        bus = TDMABus(["N1", "N2"], slot_length=10.0)
        assert tdma_window([], bus, "N1", 2.0, 5.0) == 2.0

    def test_message_that_does_not_fit_slot_rejected(self):
        bus = TDMABus(["N1", "N2"], slot_length=10.0)
        with pytest.raises(SchedulingError, match="does not fit into a TDMA slot"):
            tdma_window([], bus, "N1", 0.0, 11.0)

    def test_message_missing_slot_end_moves_to_next_round(self):
        bus = TDMABus(["N1", "N2"], slot_length=10.0)
        # Ready at t=7, needs 5 ms, N1's slot ends at 10 -> next N1 slot at 20.
        assert tdma_window([], bus, "N1", 7.0, 5.0) == 20.0

    def test_two_messages_share_one_slot_without_overlap(self):
        bus = TDMABus(["N1", "N2"], slot_length=10.0)
        windows = []
        first = grant(windows, bus, "N1", 0.0, 4.0)
        second = grant(windows, bus, "N1", 0.0, 4.0)
        assert first[1] <= second[0]
        assert second[1] <= 10.0

    def test_conflicting_message_pushed_to_later_round(self):
        bus = TDMABus(["N1", "N2"], slot_length=10.0)
        windows = []
        grant(windows, bus, "N1", 0.0, 8.0)
        assert grant(windows, bus, "N1", 0.0, 8.0) == (20.0, 28.0)


class TestReservationOrderInvariant:
    """``earliest_gap`` scans in start order and stops at the first fitting
    gap, so ``grant`` must keep the window list sorted by start time."""

    def test_gap_filling_keeps_list_sorted(self):
        bus = SimpleBus()
        windows = []
        # Grant windows out of start order: [40,50), [0,5), [20,28), [5,10).
        grant(windows, bus, "N1", 40.0, 10.0)
        grant(windows, bus, "N2", 0.0, 5.0)
        grant(windows, bus, "N1", 20.0, 8.0)
        grant(windows, bus, "N2", 2.0, 5.0)
        assert windows == [(0.0, 5.0), (5.0, 10.0), (20.0, 28.0), (40.0, 50.0)]

    def test_scan_relies_on_sorted_order(self):
        bus = SimpleBus()
        windows = []
        grant(windows, bus, "N1", 40.0, 10.0)
        grant(windows, bus, "N2", 0.0, 5.0)
        # A 15 ms message ready at t=0 fits the [5, 40) gap — the early-exit
        # scan only sees this gap if the list is ordered by start.
        assert grant(windows, bus, "N1", 0.0, 15.0) == (5.0, 20.0)

    def test_zero_duration_ties_keep_insertion_order(self):
        # Windows with equal starts stay in grant order, whatever their
        # finish: the zero-duration [10,10) granted last sorts after [10,15).
        bus = SimpleBus()
        windows = []
        grant(windows, bus, "N1", 10.0, 0.0)
        grant(windows, bus, "N2", 10.0, 5.0)
        grant(windows, bus, "N1", 10.0, 0.0)
        assert windows == [(10.0, 10.0), (10.0, 15.0), (10.0, 10.0)]

    def test_tdma_out_of_order_grants_stay_sorted(self):
        bus = TDMABus(["N1", "N2"], slot_length=10.0)
        windows = []
        # N2's first slot is [10,20); a later N1 message lands earlier at [0,5).
        assert grant(windows, bus, "N2", 0.0, 5.0) == (10.0, 15.0)
        assert grant(windows, bus, "N1", 0.0, 5.0) == (0.0, 5.0)
        assert windows == [(0.0, 5.0), (10.0, 15.0)]


class TestTDMARulesOnTheProductionKernel:
    """The slot rules above, through ``ListScheduler`` on the ``flat`` kernel.

    P0 on NA feeds P1 on NB; P0 finishes at ``ready`` (its WCET), so the
    message to NB is ready then and is sent in a slot of NA.
    """

    def _message_window(self, ready, transmission, slot_order=("NA", "NB")):
        application = Application(
            "tdma", deadline=10_000.0, reliability_goal=0.9, recovery_overhead=0.0
        )
        graph = application.new_graph("G")
        graph.add_process(Process("P0", nominal_wcet=ready))
        graph.add_process(Process("P1", nominal_wcet=1.0))
        graph.add_message(Message("m0", "P0", "P1", transmission_time=transmission))
        node_type = NodeType("T", [HVersion(1, 1.0)])
        profile = ExecutionProfile()
        profile.add_entry("P0", "T", 1, ready, 1e-6)
        profile.add_entry("P1", "T", 1, 1.0, 1e-6)
        architecture = Architecture([Node("NA", node_type), Node("NB", node_type)])
        mapping = ProcessMapping({"P0": "NA", "P1": "NB"})
        scheduler = ListScheduler(
            bus=TDMABus(list(slot_order), slot_length=10.0), kernel=FlatSchedulerKernel()
        )
        schedule = scheduler.schedule(application, architecture, mapping, profile)
        entry = schedule.message_entry("m0")
        return entry.start, entry.finish

    def test_message_waits_for_its_senders_slot(self):
        # NA owns [10, 20), [30, 40), ... when it is second in the round.
        assert self._message_window(2.0, 5.0, slot_order=("NB", "NA")) == (10.0, 15.0)

    def test_message_in_own_slot_starts_immediately(self):
        assert self._message_window(2.0, 5.0) == (2.0, 7.0)

    def test_message_missing_slot_end_moves_to_next_round(self):
        assert self._message_window(7.0, 5.0) == (20.0, 25.0)

    def test_message_that_does_not_fit_slot_rejected(self):
        with pytest.raises(SchedulingError, match="does not fit into a TDMA slot"):
            self._message_window(2.0, 11.0)

    def test_unknown_sender_rejected(self):
        with pytest.raises(SchedulingError, match="owns no TDMA slot"):
            self._message_window(2.0, 5.0, slot_order=("NB",))
