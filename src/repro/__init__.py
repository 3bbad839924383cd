"""repro — hardening-aware design optimization of fault-tolerant embedded systems.

A faithful, laptop-scale reproduction of

    V. Izosimov, I. Polian, P. Pop, P. Eles, Z. Peng,
    "Analysis and Optimization of Fault-Tolerant Embedded Systems with
    Hardened Processors", DATE 2009.

The public API re-exports the most commonly used classes; see README.md
for the layout and the scenario driver, PERFORMANCE.md for the kernel and
caching architecture, and ``examples/`` for runnable entry points.
"""

from __future__ import annotations

from repro.core import (
    Application,
    Architecture,
    ArchitectureEnumerator,
    DesignResult,
    DesignStrategy,
    ExecutionProfile,
    FaultModel,
    HardeningModel,
    HVersion,
    MappingAlgorithm,
    MappingResult,
    Message,
    Node,
    NodeType,
    Objective,
    Process,
    ProcessMapping,
    RedundancyDecision,
    RedundancyOpt,
    ReExecutionDecision,
    ReExecutionOpt,
    SFPAnalysis,
    SFPReport,
    TaskGraph,
    TechnologyModel,
    doubling_cost_node_type,
    failure_probability_from_ser,
    linear_cost_node_type,
)
from repro.core.exhaustive import ExhaustiveSearch
from repro.engine import EvaluationEngine
from repro.scheduling import ListScheduler, Schedule, ScheduledMessage, ScheduledProcess
from repro.simulation import FaultScenarioSimulator, SimulationSummary

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "Application",
    "Architecture",
    "ArchitectureEnumerator",
    "DesignResult",
    "DesignStrategy",
    "EvaluationEngine",
    "ExecutionProfile",
    "ExhaustiveSearch",
    "FaultModel",
    "FaultScenarioSimulator",
    "HVersion",
    "HardeningModel",
    "ListScheduler",
    "MappingAlgorithm",
    "MappingResult",
    "Message",
    "Node",
    "NodeType",
    "Objective",
    "Process",
    "ProcessMapping",
    "RedundancyDecision",
    "RedundancyOpt",
    "ReExecutionDecision",
    "ReExecutionOpt",
    "SFPAnalysis",
    "SFPReport",
    "Schedule",
    "ScheduledMessage",
    "ScheduledProcess",
    "SimulationSummary",
    "TaskGraph",
    "TechnologyModel",
    "doubling_cost_node_type",
    "failure_probability_from_ser",
    "linear_cost_node_type",
]
