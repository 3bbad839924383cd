"""Reference scheduler kernel — the per-object list-scheduling path.

This is the implementation every other scheduler backend is measured
against: the exact placement loop, bus gap search and recovery-slack
arithmetic that historically lived in
:class:`~repro.scheduling.list_scheduler.ListScheduler` and produced the
paper reproduction's published schedules.  It is deliberately boring — name
keyed dictionaries, one full gap search (:func:`earliest_gap`) per
inter-node message over a start-sorted list of the windows granted so far —
so it stays readable as the executable specification of the scheduler
bit-identity contract.
"""

from __future__ import annotations

from bisect import insort
from operator import itemgetter
from typing import TYPE_CHECKING, Dict, List, Tuple

from repro.kernels.sched_base import (
    SchedulerKernel,
    SchedulingProblem,
    scheduling_layers,
)
from repro.scheduling.priorities import critical_path_priorities
from repro.scheduling.schedule import Schedule, ScheduledMessage, ScheduledProcess
from repro.scheduling.slack import shared_recovery_slack

if TYPE_CHECKING:
    from repro.core.application import Message
    from repro.core.profile import ExecutionProfile

#: A granted bus window: ``(start, finish)``.
Window = Tuple[float, float]

#: Sort key of the start-ordered window list.
_START = itemgetter(0)


def earliest_gap(windows: List[Window], earliest_start: float, duration: float) -> float:
    """Earliest start >= ``earliest_start`` that avoids the granted windows.

    First-come-first-served arbitration of the shared bus.  ``windows``
    must be sorted by start time: the scan stops at the first gap the
    message fits into.
    """
    candidate = earliest_start
    for start, finish in windows:
        if candidate + duration <= start:
            break
        if candidate < finish:
            candidate = finish
    return candidate


def grant(windows: List[Window], earliest_start: float, duration: float) -> Window:
    """Grant a message the earliest free bus window; record it.

    The window is inserted into ``windows`` in start order, after any
    window with the same start, which is the order the gap search relies
    on.
    """
    start = earliest_gap(windows, earliest_start, duration)
    window = (start, start + duration)
    insort(windows, window, key=_START)
    return window


class ReferenceSchedulerKernel(SchedulerKernel):
    """Per-object list scheduling (the executable bit-identity specification)."""

    name = "reference"

    # ------------------------------------------------------------------
    def build_schedule(self, problem: SchedulingProblem) -> Schedule:
        application = problem.application
        architecture = problem.architecture
        mapping = problem.mapping
        profile = problem.profile

        priorities = critical_path_priorities(application, architecture, mapping, profile)
        scheduled: Dict[str, ScheduledProcess] = {}
        scheduled_messages: List[ScheduledMessage] = []
        node_free: Dict[str, float] = {node.name: 0.0 for node in architecture}
        # Granted bus windows in start order (see grant).
        windows: List[Window] = []

        layers, incoming = scheduling_layers(application)
        # Per-call node view: (name, wcet lookup key) resolved once per node
        # instead of re-deriving type/hardening for each placed process.
        node_info: Dict[str, Tuple[str, str, int]] = {
            node.name: (node.name, node.node_type.name, node.hardening)
            for node in architecture
        }
        node_of = mapping.node_of
        for layer in layers:
            for process in sorted(
                layer, key=lambda process: (-priorities[process], process)
            ):
                entry, new_messages = self._place_process(
                    process,
                    incoming[process],
                    node_info[node_of(process)],
                    profile,
                    scheduled,
                    node_free,
                    windows,
                )
                scheduled[process] = entry
                scheduled_messages.extend(new_messages)
                node_free[entry.node] = entry.finish

        slack = self._recovery_slack(problem)
        return Schedule(
            processes=list(scheduled.values()),
            messages=scheduled_messages,
            node_recovery_slack=slack,
            reexecutions=problem.budgets,
            hardening=architecture.hardening_vector(),
        )

    # ------------------------------------------------------------------
    def _place_process(
        self,
        process: str,
        incoming_messages: List[Message],
        node_info: Tuple[str, str, int],
        profile: ExecutionProfile,
        scheduled: Dict[str, ScheduledProcess],
        node_free: Dict[str, float],
        windows: List[Window],
    ) -> Tuple[ScheduledProcess, List[ScheduledMessage]]:
        """Compute the execution window of ``process`` and its input messages."""
        node_name, type_name, hardening = node_info
        earliest = node_free[node_name]
        new_messages: List[ScheduledMessage] = []
        for message in incoming_messages:
            producer_entry = scheduled[message.source]
            if producer_entry.node == node_name:
                # Intra-node communication happens through local memory and is
                # available as soon as the producer finishes.
                earliest = max(earliest, producer_entry.finish)
                continue
            start, finish = grant(
                windows, producer_entry.finish, message.transmission_time
            )
            new_messages.append(
                ScheduledMessage(
                    message=message.name,
                    source_process=message.source,
                    destination_process=message.destination,
                    source_node=producer_entry.node,
                    destination_node=node_name,
                    start=start,
                    finish=finish,
                )
            )
            earliest = max(earliest, finish)
        wcet = profile.wcet(process, type_name, hardening)
        entry = ScheduledProcess(
            process=process, node=node_name, start=earliest, finish=earliest + wcet
        )
        return entry, new_messages

    def _recovery_slack(self, problem: SchedulingProblem) -> Dict[str, float]:
        """Recovery slack reserved at the end of each node's schedule."""
        slack: Dict[str, float] = {}
        application = problem.application
        mapping = problem.mapping
        budgets = problem.budgets
        wcet = problem.profile.wcet
        for node in problem.architecture:
            type_name = node.node_type.name
            hardening = node.hardening
            pairs = [
                (
                    wcet(process, type_name, hardening),
                    application.recovery_overhead_of(process),
                )
                for process in mapping.processes_on(node.name)
            ]
            slack[node.name] = shared_recovery_slack(pairs, budgets.get(node.name, 0))
        return slack
