"""RedundancyOpt — hardware/software redundancy trade-off (Section 6.3).

For a fixed mapping, the heuristic decides the hardening level of every node
and the number of re-executions on each node such that

* the reliability goal is met (delegated to
  :class:`~repro.core.reexecution.ReExecutionOpt`),
* the worst-case schedule length fits the deadline, and
* the architecture cost is as low as possible.

Following the paper, the heuristic first *increases* hardening greedily until
a schedulable solution is found (more hardening means fewer re-executions and
therefore less recovery slack, at the price of slower execution), then
*trims* hardening level by level as long as the application stays schedulable,
keeping the cheapest schedulable alternative at every step.

The MIN and MAX baselines of Section 7 remove that hardening optimization
step and optimize only the software redundancy, at the minimum or maximum
hardening levels; :class:`RedundancyOpt` takes the strategy as its
``policy``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.core.architecture import Architecture
from repro.core.exceptions import ModelError, OptimizationError
from repro.core.mapping_model import ProcessMapping
from repro.core.reexecution import ReExecutionOpt
from repro.engine import MISS, EvaluationEngine
from repro.engine.fingerprint import (
    architecture_fingerprint,
    hardening_fingerprint,
    mapping_fingerprint,
)
from repro.scheduling.list_scheduler import ListScheduler
from repro.scheduling.schedule import Schedule


@dataclass(frozen=True)
class RedundancyDecision:
    """Hardening levels + re-executions + resulting schedule for one mapping.

    Every decision starts without a schedule (``schedule is None``), whether
    it was just evaluated or read back from the persistent design-point
    store: the search scores designs by ``schedule_length`` alone, computed
    by :meth:`ListScheduler.worst_case_length`.  The schedule is built on
    first read through :meth:`RedundancyOpt.schedule_of`, which
    installs it on the decision.
    """

    hardening: Dict[str, int]
    reexecutions: Dict[str, int]
    schedule: Optional[Schedule]
    cost: float
    schedule_length: float
    meets_deadline: bool
    meets_reliability: bool

    @property
    def is_feasible(self) -> bool:
        """Schedulable and reliable — the two hard constraints of the paper."""
        return self.meets_deadline and self.meets_reliability


#: The three strategies of Section 7, by the hardening policy they differ in.
POLICIES = ("MIN", "MAX", "OPT")

#: The list scheduler holds no state, so one instance serves every optimizer.
_SCHEDULER = ListScheduler()


class RedundancyOpt:
    """Hardening and re-execution decision for a fixed mapping, per policy.

    ``policy`` is one of :data:`POLICIES`.  ``"OPT"`` is the paper's
    heuristic: it starts from the minimum hardening vector, hardens until the
    mapping is feasible (Phase 1), then trims hardening while the cost drops
    (Phase 2).  ``"MIN"`` and ``"MAX"`` are the Section 7 baselines, which
    remove the hardening optimization: they evaluate the locked minimum or
    maximum hardening vector and stop, so only the software redundancy is
    optimized.

    :meth:`evaluate_hardening`, :meth:`optimize` and :meth:`schedule_of`
    take the :class:`~repro.engine.engine.EvaluationEngine` of the
    (application, profile) being explored and read both from it.  Every
    evaluated design point — (architecture, mapping, hardening vector) — is
    memoized there, so revisited points skip both the re-execution
    optimization and the list scheduler.  The key is the design point alone: the scheduler
    always reserves shared slack and :class:`ReExecutionOpt` always caps
    ``k_j`` at the same constant, so every policy decides a design point the
    same way and one engine serves them all.  A whole :meth:`optimize` run
    is memoized per (policy, architecture, mapping).  Cached
    :class:`RedundancyDecision` objects are shared between callers and must
    be treated as immutable (their dict fields are copied by every consumer
    that mutates).
    """

    def __init__(self, policy: str = "OPT") -> None:
        if policy not in POLICIES:
            raise OptimizationError(
                f"RedundancyOpt policy must be one of {POLICIES}, got {policy!r}"
            )
        self.policy = policy

    # ------------------------------------------------------------------
    def evaluate_hardening(
        self,
        engine: EvaluationEngine,
        architecture: Architecture,
        mapping: ProcessMapping,
        hardening: Dict[str, int],
    ) -> RedundancyDecision:
        """Evaluate one hardening vector: re-executions, schedule, cost.

        ``hardening`` must name every node of ``architecture``: the memo key
        treats it as a total description of the node levels, so a partial
        vector would alias design points that differ in the unnamed nodes'
        current levels.
        """
        # Unknown names are rejected by apply_hardening_vector on a miss and
        # can never hit (the names are part of the key); a matching length
        # therefore means every node is named.
        if len(hardening) != len(architecture):
            raise ModelError(
                f"Hardening vector {sorted(hardening)} must name every node of "
                f"the architecture {architecture.node_names}"
            )
        key = (
            architecture_fingerprint(architecture),
            mapping_fingerprint(mapping),
            hardening_fingerprint(hardening),
        )
        decision = engine.decisions.get(key)
        if decision is MISS:
            decision = engine.decisions.put(
                key,
                self._evaluate_hardening(engine, architecture, mapping, hardening),
            )
            engine.evaluations += 1
        return decision

    def _evaluate_hardening(
        self,
        engine: EvaluationEngine,
        architecture: Architecture,
        mapping: ProcessMapping,
        hardening: Dict[str, int],
    ) -> RedundancyDecision:
        application = engine.application
        candidate = architecture.copy()
        candidate.apply_hardening_vector(hardening)
        reexecution = ReExecutionOpt().optimize(engine, candidate, mapping)
        if reexecution is None:
            # Reliability goal unreachable at this hardening level; score
            # with zero re-executions only to report a schedule length.
            budgets: Dict[str, int] = {node.name: 0 for node in candidate}
            meets_reliability = False
        else:
            budgets = reexecution.reexecutions
            meets_reliability = True
        length = _SCHEDULER.worst_case_length(
            application, candidate, mapping, engine.profile, budgets
        )
        return RedundancyDecision(
            hardening=dict(hardening),
            reexecutions=dict(budgets),
            schedule=None,
            cost=candidate.cost,
            schedule_length=length,
            meets_deadline=length <= application.deadline,
            meets_reliability=meets_reliability,
        )

    def schedule_of(
        self,
        engine: EvaluationEngine,
        decision: RedundancyDecision,
        architecture: Architecture,
        mapping: ProcessMapping,
    ) -> Schedule:
        """The decision's schedule, built on first read.

        This is the only place the exploration builds a schedule.
        ``mapping`` must be the mapping the decision was evaluated for.  The
        build replays the evaluation's scheduler call with the decision's
        hardening and re-execution budgets — a deterministic function of
        those inputs, whose length is the decision's ``schedule_length`` —
        and installs the result on the (shared) decision, so every later
        reader gets the same object without rescheduling.
        """
        schedule = decision.schedule
        if schedule is None:
            candidate = architecture.copy()
            candidate.apply_hardening_vector(decision.hardening)
            schedule = _SCHEDULER.schedule(
                engine.application,
                candidate,
                mapping,
                engine.profile,
                decision.reexecutions,
            )
            # Lazy field of a frozen value: the decision's identity and every
            # compared field are unchanged; only the derived schedule appears.
            object.__setattr__(decision, "schedule", schedule)
        return schedule

    # ------------------------------------------------------------------
    def initial_hardening(self, architecture: Architecture) -> Dict[str, int]:
        """The vector the policy starts from: every node at its maximum
        level for ``"MAX"``, at its minimum level otherwise."""
        if self.policy == "MAX":
            return {node.name: node.node_type.max_hardening for node in architecture}
        return {node.name: node.node_type.min_hardening for node in architecture}

    def optimize(
        self,
        engine: EvaluationEngine,
        architecture: Architecture,
        mapping: ProcessMapping,
    ) -> Optional[RedundancyDecision]:
        """Return the cheapest feasible redundancy decision for ``mapping``.

        Returns ``None`` when no admissible hardening vector yields a
        solution that is both schedulable and reliable (the mapping is then
        discarded by the caller, as in the paper's Fig. 4d discussion).
        """
        key = (
            self.policy,
            architecture_fingerprint(architecture),
            mapping_fingerprint(mapping),
        )
        return engine.optimizations.memoize(
            key,
            lambda: self._optimize(engine, architecture, mapping),
        )

    def _optimize(
        self,
        engine: EvaluationEngine,
        architecture: Architecture,
        mapping: ProcessMapping,
    ) -> Optional[RedundancyDecision]:
        hardening = self.initial_hardening(architecture)
        decision = self.evaluate_hardening(engine, architecture, mapping, hardening)
        if self.policy != "OPT":
            return decision if decision.is_feasible else None

        # ---------------- Phase 1: harden until feasible -----------------
        visited = 0
        max_steps = sum(
            node.node_type.max_hardening - node.node_type.min_hardening
            for node in architecture
        )
        while not decision.is_feasible and visited <= max_steps:
            # One +1-hardening sibling per non-maxed node.
            best_candidate: Optional[
                Tuple[Tuple[int, float], Dict[str, int], RedundancyDecision]
            ] = None
            for node in architecture:
                level = hardening[node.name]
                if level >= node.node_type.max_hardening:
                    continue
                trial = dict(hardening)
                trial[node.name] = level + 1
                trial_decision = self.evaluate_hardening(
                    engine, architecture, mapping, trial
                )
                # Rank: feasible reliability first, then shorter schedules.
                key = (
                    0 if trial_decision.meets_reliability else 1,
                    trial_decision.schedule_length,
                )
                if best_candidate is None or key < best_candidate[0]:
                    best_candidate = (key, trial, trial_decision)
            if best_candidate is None:
                return None
            _, hardening, decision = best_candidate
            visited += 1
        if not decision.is_feasible:
            return None

        # ---------------- Phase 2: trim hardening to cut cost ------------
        improved = True
        while improved:
            improved = False
            best_candidate = None
            for node in architecture:
                level = hardening[node.name]
                if level <= node.node_type.min_hardening:
                    continue
                trial = dict(hardening)
                trial[node.name] = level - 1
                trial_decision = self.evaluate_hardening(
                    engine, architecture, mapping, trial
                )
                if not trial_decision.is_feasible:
                    continue
                key = (trial_decision.cost, trial_decision.schedule_length)
                if best_candidate is None or key < best_candidate[0]:
                    best_candidate = (key, trial, trial_decision)
            if best_candidate is not None and best_candidate[2].cost < decision.cost:
                _, hardening, decision = best_candidate
                improved = True
        return decision

