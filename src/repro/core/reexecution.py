"""ReExecutionOpt — greedy assignment of software re-executions (Section 6.3).

Given an architecture with fixed hardening levels and a mapping, the heuristic
finds the smallest numbers of re-executions ``k_j`` per node such that the
system reliability goal ``rho`` is met, using the SFP analysis of Appendix A.

The paper: "It starts without any re-executions in software and increases the
number of re-executions in a greedy fashion ... the exploration of the number
of re-executions is guided towards the largest increase in the system
reliability."  At each step, the node whose additional re-execution lowers the
system failure probability the most receives one more re-execution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.architecture import Architecture
from repro.core.mapping_model import ProcessMapping
from repro.core.sfp import reliability_over_time_unit
from repro.engine.engine import EvaluationEngine


@dataclass(frozen=True)
class ReExecutionDecision:
    """Result of the re-execution optimization."""

    reexecutions: Dict[str, int]
    system_failure_per_iteration: float
    reliability_over_time_unit: float
    meets_goal: bool


#: Safety cap on ``k_j``.  When the goal is not reached within the cap on
#: every node the heuristic reports failure (``None``), which the caller
#: reads as "this hardening level cannot satisfy the reliability goal with
#: software redundancy alone".
MAX_REEXECUTIONS_PER_NODE = 20


class ReExecutionOpt:
    """Greedy re-execution assignment driven by the SFP analysis.

    The per-node budget is capped at :data:`MAX_REEXECUTIONS_PER_NODE`.
    :meth:`optimize` takes the :class:`~repro.engine.engine.EvaluationEngine`
    of the (application, profile) being explored; its per-node exceedance
    and system-failure memo tables serve the SFP queries.  Each node's exceedance at one more
    re-execution is read from the engine once per budget and reused by every
    later greedy step; the engine's counters are credited for each reuse, so
    they read as if every step had looked it up again.
    """

    # ------------------------------------------------------------------
    def optimize(
        self,
        engine: EvaluationEngine,
        architecture: Architecture,
        mapping: ProcessMapping,
    ) -> Optional[ReExecutionDecision]:
        """Return the cheapest re-execution assignment meeting ``rho``.

        Returns ``None`` when the goal cannot be met within the per-node cap
        (typically because the hardening level is too low for the error rate).
        """
        application = engine.application
        cap = MAX_REEXECUTIONS_PER_NODE
        node_names = [node.name for node in architecture]
        # Ordered tuples: the DP sums are order-sensitive in their last bits,
        # so only the mapping order reproduces the kernel's result exactly.
        failure_probabilities = engine.profile.failure_probabilities
        prob_list = [
            failure_probabilities(
                mapping.processes_on(node.name), node.node_type.name, node.hardening
            )
            for node in architecture
        ]
        # Per-node state lives in lists aligned with ``node_names``: the
        # candidate tuples below are substitute-snapshot-restore over one
        # flat list, which keeps the hottest expression of the optimizer
        # free of per-element dictionary lookups.
        count = len(node_names)
        exceedance = engine.node_exceedance
        union_failure = engine.system_failure
        # Each reuse is credited under the key EvaluationEngine's
        # node_exceedance or system_failure would have looked up.
        credit_exceedance = engine.exceedance.credit
        credit_system = engine.system.credit

        budget_list = [0] * count
        ex_list = [exceedance(block, 0) for block in prob_list]
        # ``next_list[i]`` is node i's exceedance at budget_list[i] + 1, read
        # on the first greedy step that needs it (``None`` until then).
        next_list: List[Optional[float]] = [None] * count
        # Nodes without mapped processes never take part: re-executions
        # cannot help them.
        open_nodes = [i for i in range(count) if prob_list[i] and budget_list[i] < cap]

        goal = application.reliability_goal
        time_unit = application.time_unit
        period = application.period
        iterations = time_unit / period

        system = union_failure(tuple(ex_list))
        reliability = reliability_over_time_unit(system, time_unit, period)
        while reliability < goal:
            best_index = -1
            best_system = system
            best_values: Tuple[float, ...] = ()
            for i in open_nodes:
                candidate_exceedance = next_list[i]
                if candidate_exceedance is None:
                    candidate_exceedance = next_list[i] = exceedance(
                        prob_list[i], budget_list[i] + 1
                    )
                else:
                    credit_exceedance((prob_list[i], budget_list[i] + 1))
                previous = ex_list[i]
                ex_list[i] = candidate_exceedance
                candidate_values = tuple(ex_list)
                ex_list[i] = previous
                candidate_system = union_failure(candidate_values)
                if candidate_system < best_system:
                    # Only a strict improvement is accepted, so stagnation
                    # (no candidate lowers the rounded system failure) is
                    # detectable below.
                    best_index = i
                    best_system = candidate_system
                    best_values = candidate_values
            if best_index < 0:
                # No additional re-execution improves the (rounded) system
                # failure probability: the goal is unreachable in software.
                return None
            i = best_index
            budget_list[i] += 1
            ex_list[i] = next_list[i]
            next_list[i] = None
            if budget_list[i] >= cap:
                open_nodes.remove(i)
            # The new per-node tuple is the winner's candidate tuple, whose
            # union this step already read.
            credit_system(best_values)
            system = best_system
            reliability = (1.0 - system) ** iterations

        return ReExecutionDecision(
            reexecutions=dict(zip(node_names, budget_list)),
            system_failure_per_iteration=system,
            reliability_over_time_unit=reliability,
            meets_goal=True,
        )

