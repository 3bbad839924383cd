"""MIN and MAX baseline strategies (Section 7).

The experimental evaluation compares the paper's OPT strategy against two
baselines obtained by removing the hardening optimization step from the
mapping algorithm:

* **MIN** — only the minimum hardening levels are used; the reliability goal
  must be reached exclusively with software re-execution.
* **MAX** — only the maximum hardening levels are used; re-executions are
  still added if needed, but the hardware is always the most expensive and
  slowest version.

Both baselines reuse the full architecture-exploration and mapping machinery
of :class:`~repro.core.design_strategy.DesignStrategy`; only the redundancy
optimizer differs (the hardening level is locked).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.architecture import NodeType
from repro.core.design_strategy import DesignStrategy
from repro.core.mapping import MappingAlgorithm
from repro.core.redundancy import FixedHardeningRedundancyOpt, RedundancyOpt
from repro.scheduling.list_scheduler import ListScheduler


def _mapping_algorithm_with(
    redundancy_optimizer,
    mapping_algorithm: Optional[MappingAlgorithm],
) -> MappingAlgorithm:
    """Clone the tuning of an existing mapping algorithm with a new optimizer."""
    if mapping_algorithm is None:
        return MappingAlgorithm(redundancy_optimizer=redundancy_optimizer)
    return MappingAlgorithm(
        redundancy_optimizer=redundancy_optimizer,
        max_iterations=mapping_algorithm.max_iterations,
        stop_after_no_improvement=mapping_algorithm.stop_after_no_improvement,
        max_candidates=mapping_algorithm.max_candidates,
    )


def optimized_strategy(
    node_types: Sequence[NodeType],
    mapping_algorithm: Optional[MappingAlgorithm] = None,
    scheduler: Optional[ListScheduler] = None,
) -> DesignStrategy:
    """The paper's OPT strategy: full hardening/re-execution trade-off."""
    redundancy = RedundancyOpt(scheduler=scheduler)
    algorithm = _mapping_algorithm_with(redundancy, mapping_algorithm)
    return DesignStrategy(node_types, mapping_algorithm=algorithm, strategy_name="OPT")


def min_hardening_strategy(
    node_types: Sequence[NodeType],
    mapping_algorithm: Optional[MappingAlgorithm] = None,
    scheduler: Optional[ListScheduler] = None,
) -> DesignStrategy:
    """MIN baseline: minimum hardening, software fault tolerance only."""
    redundancy = FixedHardeningRedundancyOpt("min", scheduler=scheduler)
    algorithm = _mapping_algorithm_with(redundancy, mapping_algorithm)
    return DesignStrategy(node_types, mapping_algorithm=algorithm, strategy_name="MIN")


def max_hardening_strategy(
    node_types: Sequence[NodeType],
    mapping_algorithm: Optional[MappingAlgorithm] = None,
    scheduler: Optional[ListScheduler] = None,
) -> DesignStrategy:
    """MAX baseline: maximum hardening on every node."""
    redundancy = FixedHardeningRedundancyOpt("max", scheduler=scheduler)
    algorithm = _mapping_algorithm_with(redundancy, mapping_algorithm)
    return DesignStrategy(node_types, mapping_algorithm=algorithm, strategy_name="MAX")


def all_strategies(
    node_types: Sequence[NodeType],
    mapping_algorithm: Optional[MappingAlgorithm] = None,
    scheduler: Optional[ListScheduler] = None,
) -> dict:
    """The three strategies compared in the paper, keyed by their name."""
    return {
        "MIN": min_hardening_strategy(node_types, mapping_algorithm, scheduler),
        "MAX": max_hardening_strategy(node_types, mapping_algorithm, scheduler),
        "OPT": optimized_strategy(node_types, mapping_algorithm, scheduler),
    }
