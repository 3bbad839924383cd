"""DesignStrategy — architecture selection heuristic (Section 6, Fig. 5).

The strategy explores the space of architectures (subsets of the available
node types), from a single fastest node up to the full node set, and keeps the
cheapest architecture for which the application is schedulable and reliable:

1. Start with the monoprocessor architecture built from the fastest node
   (``n = 1``).
2. For the current architecture (with minimum hardening levels), skip it if
   even its minimum cost cannot beat the best-so-far cost.
3. Run the mapping heuristic with the *schedule length* cost function; if the
   best achievable worst-case schedule length exceeds the deadline, the
   architecture (and any slower architecture with the same node count) cannot
   work — move to ``n + 1`` nodes.
4. Otherwise run the mapping heuristic again with the *cost* function to
   cheapen the design without losing schedulability, and record it if it
   improves on the best-so-far cost.
5. Move to the next-fastest architecture with ``n`` nodes, or to ``n + 1``
   when the size-``n`` alternatives are exhausted.

The MIN and MAX baselines of Section 7 reuse the same exploration but lock the
hardening levels: the strategy is named after the policy of its mapping
algorithm's :class:`~repro.core.redundancy.RedundancyOpt`.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import combinations
from math import inf
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.core.application import Application
from repro.core.architecture import Architecture, Node, NodeType
from repro.core.evaluation import DesignResult, infeasible_result
from repro.core.exceptions import OptimizationError
from repro.core.mapping import MappingAlgorithm, MappingResult, Objective
from repro.core.profile import ExecutionProfile
from repro.engine import EvaluationEngine, resolve_engine


class ArchitectureEnumerator:
    """Enumerate candidate architectures in the paper's exploration order.

    For a given node count ``n`` the candidates are all subsets of ``n``
    distinct node types, ordered from fastest to slowest (smaller sum of
    speed factors first, ties broken by name for determinism).
    """

    def __init__(self, node_types: Sequence[NodeType]) -> None:
        if not node_types:
            raise OptimizationError("At least one node type is required")
        names = [node_type.name for node_type in node_types]
        if len(set(names)) != len(names):
            raise OptimizationError(f"Duplicate node type names: {names}")
        self.node_types = list(node_types)

    @property
    def max_nodes(self) -> int:
        return len(self.node_types)

    def candidates(self, node_count: int) -> List[Tuple[NodeType, ...]]:
        """All architectures with exactly ``node_count`` nodes, fastest first."""
        if not 1 <= node_count <= self.max_nodes:
            return []
        subsets = combinations(self.node_types, node_count)
        return sorted(
            subsets,
            key=lambda subset: (
                sum(node_type.speed_factor for node_type in subset),
                tuple(node_type.name for node_type in subset),
            ),
        )

    def build(self, subset: Iterable[NodeType]) -> Architecture:
        """Instantiate an architecture (min hardening) from a node-type subset."""
        nodes = [Node(node_type.name, node_type) for node_type in subset]
        architecture = Architecture(nodes)
        architecture.set_min_hardening()
        return architecture


class DesignStrategy:
    """The paper's design strategy, for one of the policies MIN, MAX and OPT.

    Parameters
    ----------
    node_types:
        The library of available computation nodes (each with its h-versions).
    mapping_algorithm:
        The mapping heuristic used to evaluate each candidate architecture
        (``None`` gets ``MappingAlgorithm()``, the OPT policy).  Its policy
        names the strategy and every :class:`DesignResult` it produces.
    """

    def __init__(
        self,
        node_types: Sequence[NodeType],
        mapping_algorithm: Optional[MappingAlgorithm] = None,
    ) -> None:
        self.enumerator = ArchitectureEnumerator(node_types)
        self.mapping_algorithm = (
            mapping_algorithm if mapping_algorithm is not None else MappingAlgorithm()
        )

    @property
    def policy(self) -> str:
        """``"MIN"``, ``"MAX"`` or ``"OPT"``: the redundancy optimizer's policy."""
        return self.mapping_algorithm.redundancy_optimizer.policy

    # ------------------------------------------------------------------
    def explore(
        self,
        application: Application,
        profile: ExecutionProfile,
        max_architecture_cost: Optional[float] = None,
        engine: Optional[EvaluationEngine] = None,
    ) -> DesignResult:
        """Explore architectures and return the best (cheapest feasible) design.

        ``max_architecture_cost`` only prunes the exploration (architectures
        whose minimum cost already exceeds it are skipped); acceptance against
        ``ArC`` is re-checked by the caller via
        :meth:`DesignResult.is_accepted`.

        Every design point is evaluated through ``engine`` (``None`` gets a
        fresh one for this call).  Passing one lets callers share it across
        several strategies exploring the same (application, profile) — e.g.
        the synthetic experiment harness runs MIN / MAX / OPT against one
        engine so design points evaluated by one strategy are free for the
        others.
        """
        application.validate()
        engine = resolve_engine(engine, application, profile)
        best, total_evaluations = self._explore(
            application, profile, max_architecture_cost, engine
        )
        if best is None:
            return infeasible_result(
                self.policy,
                application.name,
                reason="no architecture meets the deadline and reliability goal",
                evaluations=total_evaluations,
            )
        return replace(best, evaluations=total_evaluations)

    def _explore(
        self,
        application: Application,
        profile: ExecutionProfile,
        max_architecture_cost: Optional[float],
        engine: EvaluationEngine,
    ):
        best: Optional[DesignResult] = None
        best_cost = inf
        cost_cap = max_architecture_cost if max_architecture_cost is not None else inf
        total_evaluations = 0

        node_count = 1
        while node_count <= self.enumerator.max_nodes:
            advanced = False
            for subset in self.enumerator.candidates(node_count):
                architecture = self.enumerator.build(subset)
                if architecture.minimum_cost >= min(best_cost, cost_cap + 1e-9):
                    # Even at minimum hardening this architecture cannot beat
                    # the best cost so far or fit the cost cap — skip it
                    # without evaluating (paper line 6).  Note the cap prune
                    # applies from the very first candidate, before any
                    # feasible design is known.
                    continue
                chosen, evaluations = self.design_for(
                    application, architecture, profile, engine
                )
                total_evaluations += evaluations
                if chosen is None:
                    # Not even the fastest mapping fits the deadline on this
                    # architecture: adding more nodes is the only way forward
                    # (paper line 15).
                    node_count += 1
                    advanced = True
                    break
                if chosen.cost < best_cost:
                    best_cost = chosen.cost
                    best = self._to_result(application, architecture, chosen)
            if not advanced:
                node_count += 1

        return best, total_evaluations

    def design_for(
        self,
        application: Application,
        architecture: Architecture,
        profile: ExecutionProfile,
        engine: EvaluationEngine,
    ) -> Tuple[Optional[MappingResult], int]:
        """Design one architecture: the schedule-length pass, then the cost pass.

        Returns the chosen mapping result and the mappings both passes
        examined.  The result is ``None`` when no mapping is feasible (paper
        line 15); otherwise it is feasible — a mapping search returns only
        feasible decisions — and it is the cost pass's result, or the
        schedule-length winner should the cost pass return nothing.
        """
        schedule_result = self.mapping_algorithm.optimize(
            application,
            architecture,
            profile,
            objective=Objective.SCHEDULE_LENGTH,
            engine=engine,
        )
        if schedule_result is None:
            return None, 0
        cost_result = self.mapping_algorithm.optimize(
            application,
            architecture,
            profile,
            objective=Objective.COST,
            initial_mapping=schedule_result.mapping,
            engine=engine,
        )
        if cost_result is None:
            return schedule_result, schedule_result.evaluations
        return cost_result, schedule_result.evaluations + cost_result.evaluations

    # ------------------------------------------------------------------
    def _to_result(
        self,
        application: Application,
        architecture: Architecture,
        mapping_result: MappingResult,
    ) -> DesignResult:
        decision = mapping_result.decision
        node_types = {node.name: node.node_type.name for node in architecture}
        return DesignResult(
            strategy=self.policy,
            application=application.name,
            feasible=True,
            node_types=node_types,
            hardening=dict(decision.hardening),
            reexecutions=dict(decision.reexecutions),
            mapping=mapping_result.mapping,
            schedule=decision.schedule,
            schedule_length=decision.schedule_length,
            deadline=application.deadline,
            cost=decision.cost,
            meets_reliability=decision.meets_reliability,
            evaluations=mapping_result.evaluations,
        )
