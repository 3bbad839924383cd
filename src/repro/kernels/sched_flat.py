"""Flat scheduler kernel — integer-indexed tables over preallocated arrays.

The per-object reference path spends most of a design-point evaluation in
string-keyed dictionary traffic: every placed process re-hashes its name to
find its node, its priority, its producers and its WCET, and every bus
message rescans every granted window.  This backend compiles the memoized
application structure once into integer-indexed tables —

* process/node/message ids (names appear only in the final ``Schedule``),
* per ``(node type, hardening)`` WCET rows over all process ids,
* flat incoming-message and successor CSR tuples,

— and then runs priorities, layer placement and the first-come-first-served
bus gap search over plain float lists indexed by those ids.  It is the only
production gap search.  The float arithmetic is the exact operation sequence
of the reference backend (same max/+ chains, same window-scan order, same
tie-breaks), so the resulting ``Schedule`` is value-equal bit for bit; the
property suite and the golden fixtures pin this.

One placement routine feeds both entry points: ``worst_case_length`` reads
the length it computes, while ``build_schedule`` turns its recorded windows
into the ``Schedule``.

The compiled tables are cached per (structure, profile) identity — the
list scheduler memoizes the structure object, so the cache holds across the
thousands of design points of one exploration and recompiles only when the
application actually changes.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional, Tuple

from repro.kernels.sched_base import (
    ScheduleStructure,
    SchedulerKernel,
    SchedulingProblem,
)
from repro.scheduling.schedule import Schedule, ScheduledMessage, ScheduledProcess

if TYPE_CHECKING:
    from repro.core.application import Application
    from repro.core.profile import ExecutionProfile


class _CompiledApplication:
    """Integer-indexed tables for one (application structure, profile) pair."""

    __slots__ = (
        "structure",
        "profile",
        "profile_version",
        "recovery_version",
        "names",
        "index",
        "layers",
        "in_edges",
        "rev_order",
        "succ_edges",
        "mu",
        "_entries",
        "_versions",
    )

    def __init__(
        self,
        structure: ScheduleStructure,
        application: Application,
        profile: ExecutionProfile,
    ) -> None:
        self.structure = structure
        self.profile = profile
        self.profile_version = profile.version
        self.recovery_version = application.recovery_version
        names: List[str] = []
        index: Dict[str, int] = {}
        for graph in application.graphs:
            for name in graph.process_names:
                index[name] = len(names)
                names.append(name)
        self.names = names
        self.index = index
        count = len(names)

        # Layers pre-sorted by process name: the per-call ordering sorts each
        # layer by descending priority with a *stable* sort, which then
        # reproduces the reference (-priority, name) tie-break without
        # building a tuple key per process per design point.
        self.layers = [
            [index[name] for name in sorted(layer)] for layer in structure.layers
        ]
        # Incoming CSR: (producer id, message name, producer name, duration)
        # per consumer, in the exact order the reference loop visits them.
        in_edges: List[Tuple] = [()] * count
        for name, messages in structure.incoming.items():
            in_edges[index[name]] = tuple(
                (index[message.source], message.name, message.source,
                 message.transmission_time)
                for message in messages
            )
        self.in_edges = in_edges

        # Priority walk: reversed topological order per graph, successor ids
        # with message durations, matching critical_path_priorities exactly
        # (a message always exists on an edge; adding 0.0 for a hypothetical
        # message-less edge is float-identical to not adding).
        rev_order: List[int] = []
        succ_edges: List[Tuple] = [()] * count
        for graph in application.graphs:
            successor_map = graph.adjacency_maps()[1]
            message_between = graph.message_between
            topological = graph.topological_order()
            for name in reversed(topological):
                rev_order.append(index[name])
            for name in topological:
                entries = []
                for successor in successor_map[name]:
                    message = message_between(name, successor)
                    entries.append(
                        (
                            index[successor],
                            message.transmission_time if message is not None else 0.0,
                        )
                    )
                succ_edges[index[name]] = tuple(entries)
        self.rev_order = rev_order
        self.succ_edges = succ_edges

        self.mu = [application.recovery_overhead_of(name) for name in names]
        self._entries = profile.entries()
        # WCET rows per (node type, hardening), built on first use; ``None``
        # marks a missing profile entry (never queried for validated
        # mappings, reported with the reference ProfileError if it is).
        self._versions: Dict[Tuple[str, int], List[Optional[float]]] = {}

    def wcet_row(self, type_name: str, hardening: int) -> List[Optional[float]]:
        key = (type_name, hardening)
        row = self._versions.get(key)
        if row is None:
            entries = self._entries
            row = [
                entry.wcet if entry is not None else None
                for entry in (
                    entries.get((name, type_name, hardening)) for name in self.names
                )
            ]
            self._versions[key] = row
        return row


class _Placement(NamedTuple):
    """What one placement pass leaves behind, indexed by process/node id."""

    names: List[str]
    node_names: List[str]
    node_keys: List[Tuple[str, int]]
    node_idx_of: List[int]
    start: List[float]
    finish: List[float]
    #: Process ids in placement order.
    order: List[int]
    #: Granted bus windows in grant order:
    #: (message, producer, consumer id, sender node, start, finish).
    messages: List[Tuple[str, str, int, str, float, float]]
    #: Recovery slack per node id.
    slack: List[float]
    #: Worst-case schedule length (the built ``Schedule``'s ``length``).
    length: float


class FlatSchedulerKernel(SchedulerKernel):
    """Integer-id placement + flat-array bus gap search (bit-identical)."""

    name = "flat"

    def __init__(self) -> None:
        self._compiled: Optional[_CompiledApplication] = None
        # One-slot memo of the mapping-derived tables (node id per process,
        # process ids per node).  The redundancy optimizer evaluates many
        # hardening vectors for the same mapping object in a row; the guard
        # is (compiled, mapping identity, mapping version, node-name order).
        self._mapping_memo: Optional[Tuple] = None

    # ------------------------------------------------------------------
    def _compile(self, problem: SchedulingProblem) -> _CompiledApplication:
        compiled = self._compiled
        # The list scheduler re-creates the structure object whenever the
        # application's structural token changes, and the compiled object
        # keeps strong references, so a recycled address can never alias a
        # dead structure/profile.  Identity alone does not cover *in-place*
        # edits of the snapshotted tables, so the profile's and the
        # application's recovery-overhead mutation counters are part of the
        # guard: overwriting a WCET entry or a mu value recompiles instead of
        # silently replaying stale floats.
        if (
            compiled is None
            or compiled.structure is not problem.structure
            or compiled.profile is not problem.profile
            or compiled.profile_version != problem.profile.version
            or compiled.recovery_version != problem.application.recovery_version
        ):
            compiled = _CompiledApplication(
                problem.structure, problem.application, problem.profile
            )
            self._compiled = compiled
        return compiled

    # ------------------------------------------------------------------
    def worst_case_length(self, problem: SchedulingProblem) -> float:
        return self._place(problem).length

    def build_schedule(self, problem: SchedulingProblem) -> Schedule:
        placement = self._place(problem)
        names = placement.names
        node_names = placement.node_names
        node_idx_of = placement.node_idx_of
        return Schedule(
            processes=[
                ScheduledProcess(
                    names[p], node_names[node_idx_of[p]],
                    placement.start[p], placement.finish[p],
                )
                for p in placement.order
            ],
            messages=[
                ScheduledMessage(
                    message_name, producer_name, names[p],
                    sender, node_names[node_idx_of[p]],
                    window, window_finish,
                )
                for message_name, producer_name, p, sender, window, window_finish in (
                    placement.messages
                )
            ],
            node_recovery_slack=dict(zip(node_names, placement.slack)),
            reexecutions=problem.budgets,
            hardening={
                name: key[1] for name, key in zip(node_names, placement.node_keys)
            },
        )

    # ------------------------------------------------------------------
    def _place(self, problem: SchedulingProblem) -> _Placement:
        """Priorities, layer placement, bus gap search and recovery slack.

        The one placement loop both consumers share.  It runs the gap search
        over its own flat arrays; :meth:`build_schedule` turns the recorded
        windows into a ``Schedule``, :meth:`worst_case_length` reads only the
        length.
        """
        compiled = self._compile(problem)
        architecture = problem.architecture
        mapping = problem.mapping
        names = compiled.names
        index = compiled.index
        count = len(names)

        # --- per-design-point node tables ------------------------------
        node_names: List[str] = []
        node_rows: List[List[Optional[float]]] = []
        node_keys: List[Tuple[str, int]] = []
        node_index: Dict[str, int] = {}
        for node in architecture:
            node_index[node.name] = len(node_names)
            node_names.append(node.name)
            key = (node.node_type.name, node.hardening)
            node_keys.append(key)
            node_rows.append(compiled.wcet_row(*key))
        n_nodes = len(node_names)

        memo = self._mapping_memo
        if (
            memo is not None
            and memo[0] is compiled
            and memo[1] is mapping
            and memo[2] == mapping.version
            and memo[3] == node_names
        ):
            node_idx_of, on_node = memo[4], memo[5]
        else:
            node_idx_of = [0] * count
            on_node = [[] for _ in range(n_nodes)]
            for name, node_name in mapping.items():
                p = index[name]
                n = node_index[node_name]
                node_idx_of[p] = n
                on_node[n].append(p)
            self._mapping_memo = (
                compiled, mapping, mapping.version, list(node_names),
                node_idx_of, on_node,
            )

        # --- priorities (bit-identical to critical_path_priorities) ----
        # The reversed-topological walk visits every process exactly once,
        # so the per-process WCET resolution is fused into it.
        wcet_of = [0.0] * count
        priority = [0.0] * count
        succ_edges = compiled.succ_edges
        for p in compiled.rev_order:
            own_node = node_idx_of[p]
            wcet = node_rows[own_node][p]
            if wcet is None:
                # Raise the identical ProfileError of the per-object path.
                problem.profile.wcet(names[p], *node_keys[own_node])
            wcet_of[p] = wcet
            best_tail = 0.0
            for successor, duration in succ_edges[p]:
                tail = priority[successor]
                if node_idx_of[successor] != own_node:
                    tail += duration
                if tail > best_tail:
                    best_tail = tail
            priority[p] = wcet + best_tail

        # --- placement over flat arrays --------------------------------
        start = [0.0] * count
        finish = [0.0] * count
        node_free = [0.0] * n_nodes
        order: List[int] = []
        messages: List[Tuple[str, str, int, str, float, float]] = []
        max_message_finish = 0.0
        # Granted bus windows, kept sorted by start time (parallel
        # arrays searched by the gap scan).
        res_start: List[float] = []
        res_finish: List[float] = []

        in_edges = compiled.in_edges
        # While every granted window has positive duration the windows are
        # pairwise disjoint, so sorting by start also sorts by finish and a
        # bisect can skip the already-finished prefix of the gap scan.  The
        # first zero-duration reservation (zero-size message) drops back to
        # the reference full scan.
        finish_sorted = True
        for layer in compiled.layers:
            if len(layer) > 1:
                layer = sorted(layer, key=priority.__getitem__, reverse=True)
            for p in layer:
                n = node_idx_of[p]
                earliest = node_free[n]
                for producer, message_name, producer_name, duration in in_edges[p]:
                    pn = node_idx_of[producer]
                    ready = finish[producer]
                    if pn == n:
                        if ready > earliest:
                            earliest = ready
                        continue
                    sender = node_names[pn]
                    # The reference earliest_gap over the flat arrays.  A
                    # reservation with finish <= candidate can neither end
                    # the scan (its start precedes the candidate) nor move
                    # it, so the sorted-finish prefix is safely skipped when
                    # positive durations guarantee it.
                    candidate = ready
                    if finish_sorted and duration > 0.0:
                        scan = bisect_right(res_finish, candidate)
                    else:
                        scan = 0
                    for k in range(scan, len(res_start)):
                        if candidate + duration <= res_start[k]:
                            break
                        held = res_finish[k]
                        if candidate < held:
                            candidate = held
                    window = candidate
                    window_finish = window + duration
                    if window_finish == window:
                        finish_sorted = False
                    at = bisect_right(res_start, window)
                    res_start.insert(at, window)
                    res_finish.insert(at, window_finish)
                    messages.append(
                        (message_name, producer_name, p, sender, window, window_finish)
                    )
                    if window_finish > max_message_finish:
                        max_message_finish = window_finish
                    if window_finish > earliest:
                        earliest = window_finish
                done = earliest + wcet_of[p]
                start[p] = earliest
                finish[p] = done
                node_free[n] = done
                order.append(p)

        # --- recovery slack --------------------------------------------
        # Inlined shared slack over the flat arrays: the same
        # ``budget * max_i(t + mu)`` chain as repro.scheduling.slack, iterated
        # in mapping order exactly like the reference's processes_on scan
        # (the list scheduler already rejected negative budgets).
        budgets = problem.budgets
        mu = compiled.mu
        slack = [0.0] * n_nodes
        for n in range(n_nodes):
            budget = budgets.get(node_names[n], 0)
            mapped = on_node[n]
            if not mapped or budget == 0:
                continue
            slack[n] = budget * max(wcet_of[p] + mu[p] for p in mapped)

        # The worst-case length: per-node completions are the final
        # node_free values, and max over the same floats yields the same
        # float the lazy Schedule.length property computes.
        length = max_message_finish
        for n in range(n_nodes):
            if on_node[n]:
                worst_case = node_free[n] + slack[n]
                if worst_case > length:
                    length = worst_case

        return _Placement(
            names, node_names, node_keys, node_idx_of,
            start, finish, order, messages, slack, length,
        )
