"""Core models and design-optimization heuristics of the paper."""

from __future__ import annotations

from repro.core.application import Application, Message, Process, TaskGraph
from repro.core.architecture import (
    Architecture,
    HVersion,
    Node,
    NodeType,
    doubling_cost_node_type,
    linear_cost_node_type,
)
from repro.core.baselines import (
    all_strategies,
    max_hardening_strategy,
    min_hardening_strategy,
    optimized_strategy,
)
from repro.core.design_strategy import ArchitectureEnumerator, DesignStrategy
from repro.core.evaluation import DesignResult, infeasible_result
from repro.core.exhaustive import ExhaustiveSearch
from repro.core.fault_model import (
    FaultModel,
    HardeningModel,
    TechnologyModel,
    failure_probability_from_ser,
)
from repro.core.mapping import MappingAlgorithm, MappingResult, Objective
from repro.core.mapping_model import ProcessMapping
from repro.core.profile import ExecutionProfile, ProfileEntry
from repro.core.redundancy import (
    FixedHardeningRedundancyOpt,
    RedundancyDecision,
    RedundancyOpt,
)
from repro.core.reexecution import ReExecutionDecision, ReExecutionOpt
from repro.core.sfp import SFPAnalysis, SFPReport

__all__ = [
    "Application",
    "Architecture",
    "ArchitectureEnumerator",
    "DesignResult",
    "DesignStrategy",
    "ExecutionProfile",
    "ExhaustiveSearch",
    "FaultModel",
    "FixedHardeningRedundancyOpt",
    "HVersion",
    "HardeningModel",
    "MappingAlgorithm",
    "MappingResult",
    "Message",
    "Node",
    "NodeType",
    "Objective",
    "Process",
    "ProcessMapping",
    "ProfileEntry",
    "RedundancyDecision",
    "RedundancyOpt",
    "ReExecutionDecision",
    "ReExecutionOpt",
    "SFPAnalysis",
    "SFPReport",
    "TaskGraph",
    "TechnologyModel",
    "all_strategies",
    "doubling_cost_node_type",
    "failure_probability_from_ser",
    "infeasible_result",
    "linear_cost_node_type",
    "max_hardening_strategy",
    "min_hardening_strategy",
    "optimized_strategy",
]
