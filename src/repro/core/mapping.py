"""MappingAlgorithm — tabu-search mapping optimization (Section 6.2).

The mapping heuristic explores process-to-node assignments for a fixed
candidate architecture.  Every evaluated mapping is completed into a full
design point by the redundancy optimizer (hardening levels + re-executions +
schedule); the mapping heuristic then compares design points under one of two
cost functions:

* ``Objective.SCHEDULE_LENGTH`` — minimize the worst-case schedule length
  (used by the design strategy to find out whether the architecture can be
  schedulable at all), and
* ``Objective.COST`` — minimize the architecture cost among schedulable,
  reliable solutions (used to cheapen an already schedulable architecture).

The search follows the paper's description: processes on the critical path of
the current best schedule are candidates for re-mapping; recently moved
processes are *tabu* for a few iterations; processes that have waited long are
prioritized; a move is accepted if it improves on the best-so-far solution
(aspiration criterion, even for tabu processes) or, failing that, the best
non-tabu move is taken to keep exploring; the search stops after a number of
iterations without improvement.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import inf
from typing import Dict, List, Optional, Tuple

from repro.core.application import Application
from repro.core.architecture import Architecture
from repro.core.exceptions import MappingError, OptimizationError
from repro.core.mapping_model import ProcessMapping
from repro.core.profile import ExecutionProfile
from repro.core.redundancy import RedundancyDecision, RedundancyOpt
from repro.engine import EvaluationEngine
from repro.scheduling.schedule import Schedule

#: Number of iterations a re-mapped process stays tabu.
TABU_TENURE = 3


class Objective(Enum):
    """Cost functions supported by the mapping heuristic."""

    SCHEDULE_LENGTH = "schedule_length"
    COST = "cost"


@dataclass(frozen=True)
class MappingResult:
    """Best design point found by the mapping heuristic for one architecture."""

    mapping: ProcessMapping
    decision: RedundancyDecision
    objective: Objective
    objective_value: float
    evaluations: int

    @property
    def schedule(self) -> Schedule:
        """The winner's schedule, which ``MappingAlgorithm.optimize`` builds.

        Raises :class:`OptimizationError` on a result assembled around a
        decision whose schedule nobody built (see ``schedule_of``).
        """
        schedule = self.decision.schedule
        if schedule is None:
            raise OptimizationError(
                "MappingResult holds a decision without a schedule; build it "
                "through the redundancy optimizer's schedule_of"
            )
        return schedule

    @property
    def schedule_length(self) -> float:
        return self.decision.schedule_length

    @property
    def cost(self) -> float:
        return self.decision.cost

    @property
    def is_feasible(self) -> bool:
        return self.decision.is_feasible


class MappingAlgorithm:
    """Tabu-search mapping optimization.

    Parameters
    ----------
    policy:
        The strategy of Section 7 (``"MIN"``, ``"MAX"`` or ``"OPT"``); the
        mapping algorithm completes every evaluated mapping with a
        :class:`~repro.core.redundancy.RedundancyOpt` of that policy, called
        once per tabu move, whose ``schedule_of`` supplies the best
        decision's schedule (rebuilt when the decision came from the
        persistent store).
    max_iterations:
        Hard cap on tabu-search iterations.
    stop_after_no_improvement:
        The search stops after this many consecutive iterations without
        improving the best-so-far solution (the paper's stopping rule).
    max_candidates:
        At most this many critical-path processes are considered for
        re-mapping per iteration (keeps the neighbourhood small).

    A re-mapped process stays tabu for :data:`TABU_TENURE` iterations.
    :meth:`optimize` takes the :class:`~repro.engine.engine.EvaluationEngine`
    of the (application, profile) being explored, reads both from it and
    forwards it to the redundancy optimizer, so revisited design points
    (tabu moves, the COST pass re-evaluating the SCHEDULE_LENGTH winner,
    overlapping hardening trials) are served from cache.
    """

    def __init__(
        self,
        policy: str = "OPT",
        max_iterations: int = 12,
        stop_after_no_improvement: int = 4,
        max_candidates: int = 4,
    ) -> None:
        self.redundancy_optimizer = RedundancyOpt(policy)
        self.max_iterations = max_iterations
        self.stop_after_no_improvement = stop_after_no_improvement
        self.max_candidates = max_candidates

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def optimize(
        self,
        engine: EvaluationEngine,
        architecture: Architecture,
        objective: Objective = Objective.SCHEDULE_LENGTH,
        initial_mapping: Optional[ProcessMapping] = None,
    ) -> Optional[MappingResult]:
        """Optimize the mapping of the engine's application onto ``architecture``.

        Returns ``None`` if no evaluated mapping admits a feasible redundancy
        decision (neither hardenable into schedulability nor able to reach the
        reliability goal) — for the ``SCHEDULE_LENGTH`` objective this means
        the architecture is unusable; for ``COST`` it means no schedulable
        design exists to cheapen.
        """
        application = engine.application
        profile = engine.profile
        evaluations = 0
        mapping = (
            initial_mapping
            if initial_mapping is not None
            else self.initial_mapping(application, architecture, profile)
        )

        def evaluate(candidate: ProcessMapping) -> Tuple[float, Optional[RedundancyDecision]]:
            nonlocal evaluations
            evaluations += 1
            decision = self.redundancy_optimizer.optimize(engine, architecture, candidate)
            return self._objective_value(decision, objective), decision

        best_value, best_decision = evaluate(mapping)
        best_mapping = mapping
        current_mapping = mapping
        current_value = best_value

        tabu: Dict[str, int] = {}
        waiting: Dict[str, int] = {name: 0 for name in application.process_names()}
        stagnation = 0

        for _ in range(self.max_iterations):
            if stagnation >= self.stop_after_no_improvement:
                break
            reference_schedule = None
            if best_decision is not None:
                reference_schedule = self.redundancy_optimizer.schedule_of(
                    engine, best_decision, architecture, best_mapping
                )
            candidates = self._critical_candidates(
                application, architecture, current_mapping, reference_schedule, waiting
            )
            moves = self._candidate_moves(candidates, architecture, current_mapping, profile)
            if not moves:
                break
            evaluated: List[
                Tuple[float, str, str, Optional[RedundancyDecision], ProcessMapping]
            ] = []
            for process, node_name in moves:
                candidate_mapping = current_mapping.moved(process, node_name)
                value, decision = evaluate(candidate_mapping)
                evaluated.append(
                    (value, process, node_name, decision, candidate_mapping)
                )
            evaluated.sort(key=lambda item: (item[0], item[1], item[2]))

            chosen = self._select_move(evaluated, best_value, tabu)
            if chosen is None:
                stagnation += 1
                self._age_counters(tabu, waiting, moved_process=None)
                continue
            value, process, node_name, decision, candidate_mapping = chosen
            current_mapping = candidate_mapping
            current_value = value
            self._age_counters(tabu, waiting, moved_process=process)
            tabu[process] = TABU_TENURE
            if value < best_value:
                best_value = value
                best_decision = decision
                best_mapping = candidate_mapping
                stagnation = 0
            else:
                stagnation += 1

        if best_decision is None or best_value == inf:
            return None
        self.redundancy_optimizer.schedule_of(
            engine, best_decision, architecture, best_mapping
        )
        return MappingResult(
            mapping=best_mapping,
            decision=best_decision,
            objective=objective,
            objective_value=best_value,
            evaluations=evaluations,
        )

    # ------------------------------------------------------------------
    # initial mapping
    # ------------------------------------------------------------------
    def initial_mapping(
        self,
        application: Application,
        architecture: Architecture,
        profile: ExecutionProfile,
    ) -> ProcessMapping:
        """Load-balancing greedy initial mapping.

        Processes are visited in topological order (per graph) and assigned to
        the supporting node with the smallest accumulated load after adding
        the process's WCET at the node's minimum hardening level.
        """
        assignment: Dict[str, str] = {}
        load: Dict[str, float] = {node.name: 0.0 for node in architecture}
        for graph in application.graphs:
            for process in graph.topological_order():
                best: Optional[Tuple[float, str, float]] = None
                for node in architecture:
                    node_type = node.node_type
                    if not profile.supports(process, node_type.name, node_type.min_hardening):
                        continue
                    wcet = profile.wcet(process, node_type.name, node_type.min_hardening)
                    projected = load[node.name] + wcet
                    key = (projected, node.name)
                    if best is None or key < (best[0], best[1]):
                        best = (projected, node.name, wcet)
                if best is None:
                    raise MappingError(
                        f"Process {process} cannot be mapped on any node of the "
                        "candidate architecture"
                    )
                _, node_name, wcet = best
                assignment[process] = node_name
                load[node_name] += wcet
        return ProcessMapping(assignment)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    @staticmethod
    def _objective_value(
        decision: Optional[RedundancyDecision], objective: Objective
    ) -> float:
        if decision is None:
            return inf
        if objective is Objective.SCHEDULE_LENGTH:
            # Prefer feasible solutions; among infeasible ones shorter is still
            # better so the search has a gradient to follow.
            if decision.is_feasible:
                return decision.schedule_length
            return inf
        if not decision.is_feasible:
            return inf
        return decision.cost

    def _critical_candidates(
        self,
        application: Application,
        architecture: Architecture,
        mapping: ProcessMapping,
        schedule: Optional[Schedule],
        waiting: Dict[str, int],
    ) -> List[str]:
        """Processes considered for re-mapping this iteration.

        Preference order: processes on the critical (longest worst-case) node
        of the current best schedule, then any process, ranked by how long the
        process has been waiting to be re-mapped.
        """
        critical: List[str] = []
        seen: set = set()
        if schedule is not None:
            nodes = sorted(
                schedule.nodes(),
                key=lambda node: schedule.worst_case_node_completion(node),
                reverse=True,
            )
            for node in nodes:
                for entry in schedule.processes_on(node):
                    if entry.process not in seen:
                        seen.add(entry.process)
                        critical.append(entry.process)
                if len(critical) >= self.max_candidates:
                    break
        for process in application.process_names():
            if process not in seen:
                seen.add(process)
                critical.append(process)
        original_order = {process: index for index, process in enumerate(critical)}
        critical.sort(
            key=lambda process: (-waiting.get(process, 0), original_order[process])
        )
        return critical[: self.max_candidates]

    @staticmethod
    def _candidate_moves(
        candidates: List[str],
        architecture: Architecture,
        mapping: ProcessMapping,
        profile: ExecutionProfile,
    ) -> List[Tuple[str, str]]:
        """All (process, target node) pairs that change the current mapping."""
        moves: List[Tuple[str, str]] = []
        for process in candidates:
            current_node = mapping.node_of(process)
            for node in architecture:
                if node.name == current_node:
                    continue
                if not profile.supports(
                    process, node.node_type.name, node.node_type.min_hardening
                ):
                    continue
                moves.append((process, node.name))
        return moves

    @staticmethod
    def _select_move(
        evaluated: List[Tuple[float, str, str, Optional[RedundancyDecision], ProcessMapping]],
        best_value: float,
        tabu: Dict[str, int],
    ):
        """Tabu-search move selection with aspiration.

        The overall best move is taken when it improves on the best-so-far
        solution (even if the process is tabu).  Otherwise the best non-tabu
        move is taken, even when it degrades the current solution, so the
        search can escape local minima.
        """
        if not evaluated:
            return None
        best_move = evaluated[0]
        if best_move[0] < best_value:
            return best_move
        for move in evaluated:
            if tabu.get(move[1], 0) <= 0 and move[0] < inf:
                return move
        return None

    @staticmethod
    def _age_counters(
        tabu: Dict[str, int], waiting: Dict[str, int], moved_process: Optional[str]
    ) -> None:
        for process in list(tabu):
            tabu[process] = max(0, tabu[process] - 1)
        for process in waiting:
            waiting[process] += 1
        if moved_process is not None:
            waiting[moved_process] = 0
