"""Exhaustive (optimal) design-space search for small problem instances.

The paper's DesignStrategy / MappingAlgorithm / RedundancyOpt stack is a
heuristic; to quantify how far it lands from the optimum this module provides
a brute-force search that enumerates

* every candidate architecture (every subset of the node-type library up to a
  configurable size),
* every mapping of processes to the architecture's nodes, and
* every combination of hardening levels,

sizes the re-execution budgets with the same SFP-driven ``ReExecutionOpt`` and
keeps the cheapest combination that is schedulable and reliable.  The search
space grows as ``nodes^processes * levels^nodes`` per architecture, so the
class refuses instances beyond a configurable size — it exists to validate
the heuristics on small instances (see
``tests/integration/test_paper_shapes.py``), not to replace them.
"""

from __future__ import annotations

from itertools import combinations, product
from typing import Optional, Sequence, Tuple

from repro.core.application import Application
from repro.core.architecture import Architecture, Node, NodeType
from repro.core.evaluation import DesignResult, infeasible_result
from repro.core.exceptions import OptimizationError
from repro.core.mapping_model import ProcessMapping
from repro.core.profile import ExecutionProfile
from repro.core.redundancy import RedundancyDecision, RedundancyOpt
from repro.engine import EvaluationEngine, resolve_engine


class ExhaustiveSearch:
    """Optimal baseline: enumerate architectures, mappings and hardening levels.

    Parameters
    ----------
    node_types:
        The node-type library to choose architectures from.
    max_processes / max_nodes:
        Safety limits; instances beyond them raise :class:`OptimizationError`
        instead of silently running for hours.
    """

    def __init__(
        self,
        node_types: Sequence[NodeType],
        max_processes: int = 8,
        max_nodes: int = 2,
    ) -> None:
        if not node_types:
            raise OptimizationError("At least one node type is required")
        self.node_types = list(node_types)
        self.evaluator = RedundancyOpt()
        self.max_processes = max_processes
        self.max_nodes = max_nodes

    # ------------------------------------------------------------------
    def explore(
        self,
        application: Application,
        profile: ExecutionProfile,
        max_architecture_cost: Optional[float] = None,
        engine: Optional[EvaluationEngine] = None,
    ) -> DesignResult:
        """Return the cheapest feasible design over the whole search space.

        Every design point is evaluated through ``engine`` (``None`` gets a
        fresh one for this call).
        """
        application.validate()
        engine = resolve_engine(engine, application, profile)
        n_processes = application.number_of_processes()
        if n_processes > self.max_processes:
            raise OptimizationError(
                f"Exhaustive search limited to {self.max_processes} processes, "
                f"got {n_processes}; use DesignStrategy for larger instances"
            )
        processes = application.process_names()
        evaluated = 0
        best: Optional[Tuple[float, Architecture, ProcessMapping, RedundancyDecision]] = None

        for size in range(1, min(self.max_nodes, len(self.node_types)) + 1):
            for subset in combinations(self.node_types, size):
                architecture = Architecture([Node(nt.name, nt) for nt in subset])
                node_names = architecture.node_names
                level_choices = [nt.hardening_levels for nt in subset]
                for assignment in product(node_names, repeat=len(processes)):
                    mapping = ProcessMapping(dict(zip(processes, assignment)))
                    if not self._mapping_supported(mapping, architecture, profile):
                        continue
                    for levels in product(*level_choices):
                        hardening = dict(zip(node_names, levels))
                        cost = sum(
                            node_type.cost(level)
                            for node_type, level in zip(subset, levels)
                        )
                        if max_architecture_cost is not None and cost > max_architecture_cost:
                            continue
                        if best is not None and cost >= best[0]:
                            continue
                        decision = self.evaluator.evaluate_hardening(
                            application, architecture, mapping, profile, hardening,
                            engine,
                        )
                        evaluated += 1
                        if not decision.is_feasible:
                            continue
                        best = (decision.cost, architecture, mapping, decision)

        if best is None:
            return infeasible_result(
                "EXHAUSTIVE",
                application.name,
                reason="no feasible design in the enumerated space",
                evaluations=evaluated,
            )
        cost, architecture, mapping, decision = best
        return DesignResult(
            strategy="EXHAUSTIVE",
            application=application.name,
            feasible=True,
            node_types={node.name: node.node_type.name for node in architecture},
            hardening=dict(decision.hardening),
            reexecutions=dict(decision.reexecutions),
            mapping=mapping,
            schedule=self.evaluator.schedule_of(
                decision, application, architecture, mapping, profile
            ),
            schedule_length=decision.schedule_length,
            deadline=application.deadline,
            cost=cost,
            meets_reliability=decision.meets_reliability,
            evaluations=evaluated,
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _mapping_supported(
        mapping: ProcessMapping, architecture: Architecture, profile: ExecutionProfile
    ) -> bool:
        """Whether every process has a profile entry on its assigned node."""
        for process, node_name in mapping.items():
            node = architecture.node(node_name)
            if not profile.supports(process, node.node_type.name):
                return False
        return True
