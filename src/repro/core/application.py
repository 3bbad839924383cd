"""Application model: processes, messages and acyclic task graphs.

The paper (Section 2) models an application ``A`` as a set of directed acyclic
graphs ``G_k(V_k, E_k)``.  Each node ``P_i`` is a *process*; an edge ``e_ij``
is a *message* carrying the output of ``P_i`` to ``P_j``.  A process becomes
ready once all of its input messages have arrived and cannot be preempted.

This module provides three classes:

* :class:`Process` — a non-preemptable unit of computation.
* :class:`Message` — a directed data dependency with a worst-case bus
  transmission time.
* :class:`TaskGraph` — one DAG of processes and messages (insertion-ordered
  adjacency dicts with validation and timing helpers).
* :class:`Application` — a set of task graphs plus the global real-time and
  reliability parameters (deadline ``D``, period ``T``, recovery overhead
  ``mu``, reliability goal ``rho`` and the time unit ``tau``).

Task graphs and applications are built freely; once an evaluation binds an
application (:meth:`Application.freeze`) it and its task graphs are read-only:
every mutator, and every assignment to a name or a real-time or reliability
parameter, raises :class:`ModelError`.

All times are expressed in milliseconds, matching the paper's examples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Tuple

from repro.core.exceptions import ModelError
from repro.utils.validation import (
    require_in_unit_interval,
    require_name,
    require_non_negative,
    require_positive,
)

#: One hour expressed in milliseconds — the paper's default time unit ``tau``.
ONE_HOUR_MS = 3_600_000.0

#: Application attributes that feed the context fingerprint or the DSE, and
#: are therefore read-only once an evaluation binds the application.
_BOUND_PARAMETERS = frozenset(
    {"name", "deadline", "period", "reliability_goal", "time_unit", "recovery_overhead"}
)


@dataclass(frozen=True)
class Process:
    """A non-preemptable process of the application.

    Parameters
    ----------
    name:
        Unique identifier of the process within the application.
    nominal_wcet:
        Optional worst-case execution time (ms) on a *reference* node without
        hardening.  It is used by the synthetic generator and by execution
        profile builders; algorithms never read it directly — they always go
        through an :class:`~repro.core.profile.ExecutionProfile`.
    """

    name: str
    nominal_wcet: Optional[float] = None

    def __post_init__(self) -> None:
        require_name(self.name, "Process")
        if self.nominal_wcet is not None:
            require_positive(self.nominal_wcet, f"nominal_wcet of {self.name}")

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


@dataclass(frozen=True)
class Message:
    """A message exchanged between two processes over the shared bus.

    The worst-case transmission time is an input of the problem (Section 2:
    "the worst-case size of messages is given, which implicitly can be
    translated into the worst-case transmission time on the bus").  If the
    communicating processes end up mapped to the same computation node the
    message is exchanged through local memory and takes zero time on the bus.
    """

    name: str
    source: str
    destination: str
    transmission_time: float = 0.0

    def __post_init__(self) -> None:
        require_name(self.name, "Message")
        if self.source == self.destination:
            raise ModelError(
                f"Message {self.name} connects {self.source} to itself; "
                "self-loops are not allowed in an acyclic task graph"
            )
        require_non_negative(self.transmission_time, f"transmission_time of {self.name}")

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.name}({self.source}->{self.destination})"


class TaskGraph:
    """A directed acyclic graph of processes connected by messages.

    The structure lives in insertion-ordered dicts: ``_processes`` (name ->
    :class:`Process`), ``_succ`` / ``_pred`` (name -> ``{neighbour: None}``)
    and ``_messages`` ((source, destination) -> :class:`Message`).  Every
    derived order follows insertion order, so
    neighbour lists, the topological order and its tie breaks are
    reproducible; removing an edge and adding it back moves it to the end of
    its endpoints' neighbour orders.  The graph is read-only once its
    application is frozen.
    """

    def __init__(self, name: str) -> None:
        self.name = require_name(name, "TaskGraph")
        self._processes: Dict[str, Process] = {}
        self._succ: Dict[str, Dict[str, None]] = {}
        self._pred: Dict[str, Dict[str, None]] = {}
        self._messages: Dict[Tuple[str, str], Message] = {}
        # Structure caches (topological order, adjacency) — rebuilt lazily and
        # dropped on every mutation.  The DSE heuristics query graph structure
        # thousands of times per exploration while the graph never changes.
        self._order_cache: Optional[Tuple[List[str], List[List[str]]]] = None
        self._adjacency_cache: Optional[
            Tuple[Dict[str, List[str]], Dict[str, List[str]]]
        ] = None
        # Set by Application.freeze when an evaluation binds the application.
        self._frozen = False

    def __setattr__(self, attribute: str, value: object) -> None:
        # The name feeds the context fingerprint: read-only once bound.
        if attribute == "name" and getattr(self, "_frozen", False):
            self._require_mutable()
        object.__setattr__(self, attribute, value)

    def _require_mutable(self) -> None:
        if self._frozen:
            raise ModelError(
                f"Task graph {self.name} is read-only: an evaluation has bound "
                "its application"
            )

    def _invalidate_structure_caches(self) -> None:
        self._order_cache = None
        self._adjacency_cache = None

    def _adjacency(self) -> Tuple[Dict[str, List[str]], Dict[str, List[str]]]:
        if self._adjacency_cache is None:
            predecessors = {name: list(preds) for name, preds in self._pred.items()}
            successors = {name: list(succs) for name, succs in self._succ.items()}
            self._adjacency_cache = (predecessors, successors)
        return self._adjacency_cache

    def _reaches(self, start: str, target: str) -> bool:
        """Whether a directed path leads from ``start`` to ``target``."""
        seen = {start}
        stack = [start]
        while stack:
            for child in self._succ[stack.pop()]:
                if child == target:
                    return True
                if child not in seen:
                    seen.add(child)
                    stack.append(child)
        return False

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_process(self, process: Process) -> Process:
        """Add ``process`` to the graph.  Re-adding the same name is an error."""
        self._require_mutable()
        if process.name in self._processes:
            raise ModelError(
                f"Process {process.name} already exists in task graph {self.name}"
            )
        self._invalidate_structure_caches()
        self._processes[process.name] = process
        self._succ[process.name] = {}
        self._pred[process.name] = {}
        return process

    def add_message(self, message: Message) -> Message:
        """Add a data dependency; both endpoints must already be processes.

        An edge that would close a cycle is rejected before anything is
        mutated, so the graph and its caches stay as they were.
        """
        self._require_mutable()
        for endpoint in (message.source, message.destination):
            if endpoint not in self._processes:
                raise ModelError(
                    f"Message {message.name} references unknown process {endpoint} "
                    f"in task graph {self.name}"
                )
        key = (message.source, message.destination)
        if key in self._messages:
            raise ModelError(
                f"A message from {message.source} to {message.destination} "
                f"already exists in task graph {self.name}"
            )
        if self._reaches(message.destination, message.source):
            raise ModelError(
                f"Adding message {message.name} would create a cycle in task "
                f"graph {self.name}"
            )
        self._invalidate_structure_caches()
        self._succ[message.source][message.destination] = None
        self._pred[message.destination][message.source] = None
        self._messages[key] = message
        return message

    def remove_message(self, source: str, destination: str) -> Message:
        """Remove (and return) the message from ``source`` to ``destination``.

        This is the supported way to rewire a task graph before it is bound
        (remove one dependency, then :meth:`add_message` its replacement); it
        keeps the structure caches consistent.
        """
        self._require_mutable()
        key = (source, destination)
        message = self._messages.get(key)
        if message is None:
            raise ModelError(
                f"No message from {source} to {destination} in task graph {self.name}"
            )
        self._invalidate_structure_caches()
        del self._succ[source][destination]
        del self._pred[destination][source]
        del self._messages[key]
        return message

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def processes(self) -> List[Process]:
        """All processes, in insertion order."""
        return list(self._processes.values())

    @property
    def process_names(self) -> List[str]:
        return list(self._processes)

    @property
    def messages(self) -> List[Message]:
        """All messages, in insertion order."""
        return list(self._messages.values())

    def process(self, name: str) -> Process:
        try:
            return self._processes[name]
        except KeyError as exc:
            raise ModelError(f"Unknown process {name} in task graph {self.name}") from exc

    def message_between(self, source: str, destination: str) -> Optional[Message]:
        """Return the message from ``source`` to ``destination`` or ``None``."""
        return self._messages.get((source, destination))

    def has_process(self, name: str) -> bool:
        return name in self._processes

    def predecessors(self, name: str) -> List[str]:
        return list(self._adjacency()[0][name])

    def successors(self, name: str) -> List[str]:
        return list(self._adjacency()[1][name])

    def incoming_messages(self, name: str) -> List[Message]:
        return [self._messages[(pred, name)] for pred in self._adjacency()[0][name]]

    def outgoing_messages(self, name: str) -> List[Message]:
        return [self._messages[(name, succ)] for succ in self._adjacency()[1][name]]

    def sources(self) -> List[str]:
        """Processes with no predecessors (entry points of the graph)."""
        return [name for name, preds in self._pred.items() if not preds]

    def sinks(self) -> List[str]:
        """Processes with no successors (exit points of the graph)."""
        return [name for name, succs in self._succ.items() if not succs]

    def topological_order(self) -> List[str]:
        return list(self._orders()[0])

    def adjacency_maps(self) -> Tuple[Dict[str, List[str]], Dict[str, List[str]]]:
        """Cached ``(predecessor map, successor map)`` of the whole graph.

        The returned dictionaries are the graph's internal caches — treat
        them as read-only.  Hot paths (scheduling priorities, readiness
        checks) use this instead of per-process :meth:`predecessors` /
        :meth:`successors` calls, which copy their result lists.
        """
        return self._adjacency()

    def topological_generations(self) -> List[List[str]]:
        """Antichain layers of the DAG: every process's predecessors live in
        strictly earlier layers.  Cached; treat the result as read-only."""
        return self._orders()[1]

    def _orders(self) -> Tuple[List[str], List[List[str]]]:
        """Cached ``(topological order, generations)`` from one Kahn pass.

        The first generation lists the sources in insertion order; each later
        one lists the processes released by the previous generation, in the
        order their last incoming edge was walked (parents in generation
        order, children in edge-insertion order).  The topological order is
        the generations flattened; the cached generations are each sorted.
        """
        if self._order_cache is not None:
            return self._order_cache
        indegree = {name: len(preds) for name, preds in self._pred.items() if preds}
        generation = [name for name, preds in self._pred.items() if not preds]
        generations: List[List[str]] = []
        while generation:
            generations.append(generation)
            released: List[str] = []
            for name in generation:
                for child in self._succ[name]:
                    indegree[child] -= 1
                    if not indegree[child]:
                        released.append(child)
                        del indegree[child]
            generation = released
        self._order_cache = (
            [name for layer in generations for name in layer],
            [sorted(layer) for layer in generations],
        )
        return self._order_cache

    def __len__(self) -> int:
        return len(self._processes)

    def __contains__(self, name: str) -> bool:
        return name in self._processes

    def __iter__(self) -> Iterator[Process]:
        return iter(self.processes)

    # ------------------------------------------------------------------
    # timing helpers
    # ------------------------------------------------------------------
    def critical_path_length(
        self,
        execution_time: Callable[[str], float],
        include_messages: bool = True,
    ) -> float:
        """Length of the longest path through the graph.

        Parameters
        ----------
        execution_time:
            Callable returning the execution time of a process given its name.
        include_messages:
            When true, message transmission times contribute to the path
            length (the pessimistic assumption that every dependency crosses
            the bus); when false only computation contributes (the fully
            local, single-node view).
        """
        longest: Dict[str, float] = {}
        for name in self.topological_order():
            best_arrival = 0.0
            for pred in self.predecessors(name):
                arrival = longest[pred]
                if include_messages:
                    message = self._messages[(pred, name)]
                    arrival += message.transmission_time
                best_arrival = max(best_arrival, arrival)
            longest[name] = best_arrival + execution_time(name)
        return max(longest.values(), default=0.0)


class Application:
    """A complete application: task graphs plus real-time/reliability goals.

    Parameters
    ----------
    name:
        Human-readable application name.
    deadline:
        Global hard deadline ``D`` in milliseconds; the worst-case schedule
        length of one application iteration must not exceed it.
    period:
        Application period ``T`` in milliseconds.  Defaults to the deadline,
        matching the paper's worked example (Appendix A.2 uses ``T = 360 ms``
        for the application whose deadline is 360 ms).
    reliability_goal:
        ``rho = 1 - gamma``; the probability that the system survives all
        transient faults during one time unit ``tau``.
    time_unit:
        Duration ``tau`` over which the reliability goal is expressed, in
        milliseconds.  The paper uses one hour.
    recovery_overhead:
        Default recovery overhead ``mu`` in milliseconds charged before every
        re-execution.  Individual processes may override it through
        ``recovery_overheads``.
    recovery_overheads:
        Optional per-process overrides of the recovery overhead (the synthetic
        benchmarks draw ``mu`` per process as 1-10 % of its WCET).
    """

    def __init__(
        self,
        name: str,
        deadline: float,
        reliability_goal: float,
        recovery_overhead: float = 0.0,
        period: Optional[float] = None,
        time_unit: float = ONE_HOUR_MS,
        recovery_overheads: Optional[Mapping[str, float]] = None,
    ) -> None:
        self.name = require_name(name, "Application")
        self.deadline = require_positive(deadline, "deadline")
        self.reliability_goal = require_in_unit_interval(reliability_goal, "reliability_goal")
        #: Default recovery overhead ``mu`` for processes without an override.
        self.recovery_overhead = require_non_negative(recovery_overhead, "recovery_overhead")
        self.period = require_positive(period if period is not None else deadline, "period")
        self.time_unit = require_positive(time_unit, "time_unit")
        self._graphs: Dict[str, TaskGraph] = {}
        self._recovery_overheads: Dict[str, float] = {}
        self._frozen = False
        # ``(names, name set)``, cached once the application is frozen (hot
        # paths — the scheduler's per-call mapping validation above all — ask
        # for the process names of a bound application thousands of times).
        self._names_cache: Optional[Tuple[List[str], frozenset]] = None
        if recovery_overheads:
            for process_name, value in recovery_overheads.items():
                self._recovery_overheads[process_name] = require_non_negative(
                    value, f"recovery overhead of {process_name}"
                )

    def freeze(self) -> None:
        """Make the application and its task graphs read-only.

        Every evaluation binds its application through this call (an
        :class:`~repro.engine.engine.EvaluationEngine` on construction, the
        list scheduler on every schedule), because each memoizes what it
        derives by object identity alone.  From then on every mutator of the
        application and of its task graphs, and every assignment to their
        names and to the application's deadline, period, reliability goal,
        time unit and default recovery overhead, raises :class:`ModelError`.
        A frozen application returns at the flag check.
        """
        if not self._frozen:
            for graph in self._graphs.values():
                graph._frozen = True
            self._frozen = True

    def __setattr__(self, attribute: str, value: object) -> None:
        if attribute in _BOUND_PARAMETERS and getattr(self, "_frozen", False):
            self._require_mutable()
        object.__setattr__(self, attribute, value)

    def _require_mutable(self) -> None:
        if self._frozen:
            raise ModelError(
                f"Application {self.name} is read-only: an evaluation has bound it"
            )

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_graph(self, graph: TaskGraph) -> TaskGraph:
        """Attach a task graph; process names must be globally unique."""
        self._require_mutable()
        if graph.name in self._graphs:
            raise ModelError(f"Task graph {graph.name} already part of {self.name}")
        existing = set(self.process_names())
        clash = existing.intersection(graph.process_names)
        if clash:
            raise ModelError(
                f"Task graph {graph.name} redefines processes {sorted(clash)} "
                f"already present in application {self.name}"
            )
        self._graphs[graph.name] = graph
        return graph

    def new_graph(self, name: str) -> TaskGraph:
        """Create, attach and return an empty task graph."""
        self._require_mutable()
        graph = TaskGraph(name)
        return self.add_graph(graph)

    def set_recovery_overhead(self, process_name: str, value: float) -> None:
        """Override the recovery overhead ``mu`` for one process."""
        self._require_mutable()
        if process_name not in set(self.process_names()):
            raise ModelError(
                f"Cannot set recovery overhead: unknown process {process_name}"
            )
        self._recovery_overheads[process_name] = require_non_negative(
            value, f"recovery overhead of {process_name}"
        )

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def graphs(self) -> List[TaskGraph]:
        return list(self._graphs.values())

    def graph(self, name: str) -> TaskGraph:
        try:
            return self._graphs[name]
        except KeyError as exc:
            raise ModelError(f"Unknown task graph {name} in application {self.name}") from exc

    @property
    def gamma(self) -> float:
        """Maximum allowed probability of system failure per time unit."""
        return 1.0 - self.reliability_goal

    def processes(self) -> List[Process]:
        """All processes of all task graphs, in graph insertion order."""
        result: List[Process] = []
        for graph in self._graphs.values():
            result.extend(graph.processes)
        return result

    def _names(self) -> Tuple[List[str], frozenset]:
        cached = self._names_cache
        if cached is None:
            names = [process.name for process in self.processes()]
            cached = (names, frozenset(names))
            if self._frozen:
                self._names_cache = cached
        return cached

    def process_names(self) -> List[str]:
        return list(self._names()[0])

    def process_name_set(self) -> frozenset:
        """The set of process names (cached once the application is frozen)."""
        return self._names()[1]

    def process(self, name: str) -> Process:
        for graph in self._graphs.values():
            if graph.has_process(name):
                return graph.process(name)
        raise ModelError(f"Unknown process {name} in application {self.name}")

    def messages(self) -> List[Message]:
        result: List[Message] = []
        for graph in self._graphs.values():
            result.extend(graph.messages)
        return result

    def recovery_overhead_of(self, process_name: str) -> float:
        """Recovery overhead ``mu`` charged before re-executing a process."""
        return self._recovery_overheads.get(process_name, self.recovery_overhead)

    def number_of_processes(self) -> int:
        return sum(len(graph) for graph in self._graphs.values())

    def validate(self) -> None:
        """Check global consistency; raise :class:`ModelError` when violated."""
        if not self._graphs:
            raise ModelError(f"Application {self.name} has no task graphs")
        if self.number_of_processes() == 0:
            raise ModelError(f"Application {self.name} has no processes")
        if self.period > self.deadline:
            # A period longer than the deadline is legal (the schedule must
            # simply finish before the deadline within each period), but a
            # deadline longer than the period would allow overlapping
            # iterations which the static cyclic schedule does not model.
            return
        if self.deadline > self.period:
            raise ModelError(
                f"Application {self.name}: deadline ({self.deadline}) exceeds "
                f"period ({self.period}); overlapping iterations are not supported"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Application(name={self.name!r}, graphs={len(self._graphs)}, "
            f"processes={self.number_of_processes()}, deadline={self.deadline}, "
            f"rho={self.reliability_goal})"
        )
