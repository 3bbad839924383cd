"""Schedule data structures and validation.

A :class:`Schedule` is the output of the static list scheduler: the fault-free
(*root*) start and finish time of every process on its node, the transmission
window of every inter-node message on the bus, and the recovery slack reserved
per node for software re-executions.  The *worst-case schedule length* —
the quantity compared against the deadline — is the latest node completion
including its recovery slack (and never earlier than the last bus
transmission).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional

from repro.core.exceptions import SchedulingError


@dataclass(frozen=True)
class ScheduledProcess:
    """Fault-free execution window of one process on its mapped node."""

    process: str
    node: str
    start: float
    finish: float

    @property
    def duration(self) -> float:
        return self.finish - self.start


@dataclass(frozen=True)
class ScheduledMessage:
    """Transmission window of one inter-node message on the shared bus."""

    message: str
    source_process: str
    destination_process: str
    source_node: str
    destination_node: str
    start: float
    finish: float

    @property
    def duration(self) -> float:
        return self.finish - self.start


class Schedule:
    """A complete static schedule for one application iteration."""

    def __init__(
        self,
        processes: List[ScheduledProcess],
        messages: List[ScheduledMessage],
        node_recovery_slack: Mapping[str, float],
        reexecutions: Mapping[str, int],
        hardening: Mapping[str, int],
    ) -> None:
        self._processes: Dict[str, ScheduledProcess] = {
            entry.process: entry for entry in processes
        }
        if len(self._processes) != len(processes):
            raise SchedulingError("Duplicate process entries in schedule")
        self._messages: Dict[str, ScheduledMessage] = {
            entry.message: entry for entry in messages
        }
        self.node_recovery_slack = dict(node_recovery_slack)
        self.reexecutions = dict(reexecutions)
        self.hardening = dict(hardening)
        # Lazy derived tables.  A Schedule is immutable after construction
        # (the heuristics only read it), so the per-node grouping and the
        # worst-case length are computed once on first query.
        self._by_node: Optional[Dict[str, List[ScheduledProcess]]] = None
        self._length: Optional[float] = None
        self._hash: Optional[int] = None

    def _node_table(self) -> Dict[str, List[ScheduledProcess]]:
        if self._by_node is None:
            table: Dict[str, List[ScheduledProcess]] = {}
            for entry in self._processes.values():
                table.setdefault(entry.node, []).append(entry)
            for entries in table.values():
                entries.sort(key=lambda entry: entry.start)
            self._by_node = table
        return self._by_node

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def processes(self) -> List[ScheduledProcess]:
        return sorted(self._processes.values(), key=lambda entry: (entry.start, entry.process))

    @property
    def messages(self) -> List[ScheduledMessage]:
        return sorted(self._messages.values(), key=lambda entry: (entry.start, entry.message))

    def entry(self, process: str) -> ScheduledProcess:
        try:
            return self._processes[process]
        except KeyError as exc:
            raise SchedulingError(f"Process {process} is not part of the schedule") from exc

    def message_entry(self, message: str) -> ScheduledMessage:
        try:
            return self._messages[message]
        except KeyError as exc:
            raise SchedulingError(f"Message {message} is not part of the schedule") from exc

    def has_message(self, message: str) -> bool:
        return message in self._messages

    def processes_on(self, node: str) -> List[ScheduledProcess]:
        """Processes executing on ``node``, ordered by start time."""
        return list(self._node_table().get(node, ()))

    def nodes(self) -> List[str]:
        return list(self._node_table())

    # ------------------------------------------------------------------
    # lengths
    # ------------------------------------------------------------------
    @property
    def fault_free_length(self) -> float:
        """Makespan of the root (fault-free) schedule."""
        process_finish = max((entry.finish for entry in self._processes.values()), default=0.0)
        message_finish = max((entry.finish for entry in self._messages.values()), default=0.0)
        return max(process_finish, message_finish)

    def node_completion(self, node: str) -> float:
        """Fault-free completion time of the last process on ``node``."""
        entries = self.processes_on(node)
        if not entries:
            return 0.0
        return max(entry.finish for entry in entries)

    def worst_case_node_completion(self, node: str) -> float:
        """Node completion including its shared recovery slack."""
        return self.node_completion(node) + self.node_recovery_slack.get(node, 0.0)

    @property
    def length(self) -> float:
        """Worst-case schedule length ``SL`` compared against the deadline."""
        if self._length is None:
            node_lengths = [
                self.worst_case_node_completion(node) for node in self.nodes()
            ]
            message_finish = max(
                (entry.finish for entry in self._messages.values()), default=0.0
            )
            self._length = max(node_lengths + [message_finish], default=0.0)
        return self._length

    def meets_deadline(self, deadline: float) -> bool:
        return self.length <= deadline

    # ------------------------------------------------------------------
    # equality
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        """Value equality over the schedule's semantic content.

        Two schedules are equal when every process window, message window,
        recovery-slack reservation, re-execution budget and hardening level
        matches — the properties that determine every downstream quantity
        (lengths, validation, simulation replay).  Lazily derived tables are
        excluded: they are functions of the compared state.  This is what
        makes :class:`~repro.core.evaluation.DesignResult` equality
        meaningful across independently produced designs (the determinism
        and kernel-equivalence suites rely on it).
        """
        if not isinstance(other, Schedule):
            return NotImplemented
        return (
            self._processes == other._processes
            and self._messages == other._messages
            and self.node_recovery_slack == other.node_recovery_slack
            and self.reexecutions == other.reexecutions
            and self.hardening == other.hardening
        )

    def __hash__(self) -> int:
        """Value hash consistent with :meth:`__eq__`.

        A schedule is immutable by convention once built (the heuristics only
        read it; the scheduler never hands the same instance out twice) —
        hashing relies on that convention and caches the result, making equal
        schedules usable as dict/set keys (e.g. when deduplicating design
        points across strategies).  The entry dicts are hashed as frozensets
        of their values: the keys are derivable from the values, so two
        ``__eq__``-equal schedules always hash equally.
        """
        value = self._hash
        if value is None:
            value = self._hash = hash(
                (
                    frozenset(self._processes.values()),
                    frozenset(self._messages.values()),
                    frozenset(self.node_recovery_slack.items()),
                    frozenset(self.reexecutions.items()),
                    frozenset(self.hardening.items()),
                )
            )
        return value

    # ------------------------------------------------------------------
    # validation and reporting
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Structural sanity checks; raise :class:`SchedulingError` on violation.

        * no two processes overlap on the same node,
        * no two messages overlap on the bus,
        * every window has non-negative duration and start time.
        """
        for entry in self._processes.values():
            if entry.start < 0 or entry.finish < entry.start:
                raise SchedulingError(
                    f"Process {entry.process} has an invalid window "
                    f"[{entry.start}, {entry.finish}]"
                )
        for entry in self._messages.values():
            if entry.start < 0 or entry.finish < entry.start:
                raise SchedulingError(
                    f"Message {entry.message} has an invalid window "
                    f"[{entry.start}, {entry.finish}]"
                )
        for node in self.nodes():
            entries = self.processes_on(node)
            for first, second in zip(entries, entries[1:]):
                if second.start < first.finish - 1e-9:
                    raise SchedulingError(
                        f"Processes {first.process} and {second.process} overlap "
                        f"on node {node}"
                    )
        # Zero-duration messages occupy no bus time: the half-open window
        # [t, t) conflicts with nothing (exactly the arbitration rule of the
        # scheduler kernels' gap searches), so they are excluded from the
        # pairwise scan — both as non-overlapping themselves and so they
        # cannot mask a real overlap between their neighbours in the sorted
        # adjacency check.
        messages = [entry for entry in self.messages if entry.finish > entry.start]
        for first, second in zip(messages, messages[1:]):
            if second.start < first.finish - 1e-9:
                raise SchedulingError(
                    f"Messages {first.message} and {second.message} overlap on the bus"
                )

    def as_gantt_text(self, time_scale: float = 1.0) -> str:
        """Human-readable Gantt-style rendering (one line per node + bus)."""
        lines: List[str] = []
        for node in self.nodes():
            windows = ", ".join(
                f"{entry.process}[{entry.start * time_scale:.1f}-{entry.finish * time_scale:.1f}]"
                for entry in self.processes_on(node)
            )
            slack = self.node_recovery_slack.get(node, 0.0)
            budget = self.reexecutions.get(node, 0)
            lines.append(
                f"{node} (h={self.hardening.get(node, '?')}, k={budget}, "
                f"slack={slack * time_scale:.1f}): {windows}"
            )
        if self._messages:
            windows = ", ".join(
                f"{entry.message}[{entry.start * time_scale:.1f}-{entry.finish * time_scale:.1f}]"
                for entry in self.messages
            )
            lines.append(f"bus: {windows}")
        lines.append(f"worst-case schedule length: {self.length * time_scale:.1f}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Schedule(processes={len(self._processes)}, messages={len(self._messages)}, "
            f"length={self.length:.2f})"
        )
