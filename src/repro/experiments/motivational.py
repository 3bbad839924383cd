"""The paper's motivational examples (Fig. 1 through Fig. 4, Appendix A.2).

These builders reconstruct, value for value, the small examples the paper uses
to motivate the hardening/re-execution trade-off:

* **Fig. 1** — the four-process application ``G1`` with its WCET/failure
  probability tables on two nodes, three h-versions each, deadline 360 ms,
  reliability goal ``1 - 1e-5`` per hour and recovery overhead 15 ms.
* **Fig. 2 / Fig. 3** — a single process on one node with three h-versions
  showing how the required number of re-executions shrinks (6, 2, 1) as the
  hardening level grows, and how that affects the worst-case delay.
* **Fig. 4** — five architecture alternatives for the Fig. 1 application,
  evaluated for cost, re-executions and schedulability.
* **Appendix A.2** — the worked SFP computation for the Fig. 4a architecture.

The evaluation helpers return plain dictionaries/dataclasses so they can be
asserted against in the tests and pretty-printed by the benchmark harnesses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core.application import Application, Message, Process
from repro.core.architecture import Architecture, HVersion, Node, NodeType
from repro.core.mapping_model import ProcessMapping
from repro.core.profile import ExecutionProfile
from repro.core.reexecution import ReExecutionOpt
from repro.core.sfp import SFPAnalysis
from repro.engine.engine import EvaluationEngine
from repro.scheduling.list_scheduler import ListScheduler

#: Worst-case bus transmission time assumed for the Fig. 1 messages (the paper
#: draws the messages on the bus but does not print their length; 10 ms keeps
#: the schedules well inside the figure's proportions).
FIG1_MESSAGE_TIME = 10.0


# ----------------------------------------------------------------------
# Fig. 1 — application and platform tables
# ----------------------------------------------------------------------
def fig1_application(message_time: float = FIG1_MESSAGE_TIME) -> Application:
    """The four-process application ``G1`` of Fig. 1 (D=360 ms, mu=15 ms)."""
    application = Application(
        name="fig1",
        deadline=360.0,
        reliability_goal=1.0 - 1e-5,
        recovery_overhead=15.0,
        period=360.0,
    )
    graph = application.new_graph("G1")
    for name in ("P1", "P2", "P3", "P4"):
        graph.add_process(Process(name))
    graph.add_message(Message("m1", "P1", "P2", transmission_time=message_time))
    graph.add_message(Message("m2", "P1", "P3", transmission_time=message_time))
    graph.add_message(Message("m3", "P2", "P4", transmission_time=message_time))
    graph.add_message(Message("m4", "P3", "P4", transmission_time=message_time))
    return application


def fig1_node_types() -> Tuple[NodeType, NodeType]:
    """Node types N1 (cost 16/32/64) and N2 (cost 20/40/80) of Fig. 1."""
    n1 = NodeType(
        "N1",
        [HVersion(1, 16.0), HVersion(2, 32.0), HVersion(3, 64.0)],
        speed_factor=1.2,
    )
    n2 = NodeType(
        "N2",
        [HVersion(1, 20.0), HVersion(2, 40.0), HVersion(3, 80.0)],
        speed_factor=1.0,
    )
    return n1, n2


#: WCET/failure probability tables of Fig. 1, keyed (process, node, level).
_FIG1_TABLE: Dict[Tuple[str, str, int], Tuple[float, float]] = {
    # N1, h = 1
    ("P1", "N1", 1): (60.0, 1.2e-3),
    ("P2", "N1", 1): (75.0, 1.3e-3),
    ("P3", "N1", 1): (60.0, 1.4e-3),
    ("P4", "N1", 1): (75.0, 1.6e-3),
    # N1, h = 2
    ("P1", "N1", 2): (75.0, 1.2e-5),
    ("P2", "N1", 2): (90.0, 1.3e-5),
    ("P3", "N1", 2): (75.0, 1.4e-5),
    ("P4", "N1", 2): (90.0, 1.6e-5),
    # N1, h = 3
    ("P1", "N1", 3): (90.0, 1.2e-10),
    ("P2", "N1", 3): (105.0, 1.3e-10),
    ("P3", "N1", 3): (90.0, 1.4e-10),
    ("P4", "N1", 3): (105.0, 1.6e-10),
    # N2, h = 1
    ("P1", "N2", 1): (50.0, 1.0e-3),
    ("P2", "N2", 1): (65.0, 1.2e-3),
    ("P3", "N2", 1): (50.0, 1.2e-3),
    ("P4", "N2", 1): (65.0, 1.3e-3),
    # N2, h = 2
    ("P1", "N2", 2): (60.0, 1.0e-5),
    ("P2", "N2", 2): (75.0, 1.2e-5),
    ("P3", "N2", 2): (60.0, 1.2e-5),
    ("P4", "N2", 2): (75.0, 1.3e-5),
    # N2, h = 3
    ("P1", "N2", 3): (75.0, 1.0e-10),
    ("P2", "N2", 3): (90.0, 1.2e-10),
    ("P3", "N2", 3): (75.0, 1.2e-10),
    ("P4", "N2", 3): (90.0, 1.3e-10),
}


def fig1_profile() -> ExecutionProfile:
    """Execution profile carrying the Fig. 1 tables."""
    profile = ExecutionProfile()
    for (process, node_type, level), (wcet, probability) in _FIG1_TABLE.items():
        profile.add_entry(process, node_type, level, wcet, probability)
    return profile


# ----------------------------------------------------------------------
# Fig. 3 — one process, one node, three h-versions
# ----------------------------------------------------------------------
def fig3_application() -> Application:
    """Single-process application of Fig. 3 (D=360 ms, mu=20 ms)."""
    application = Application(
        name="fig3",
        deadline=360.0,
        reliability_goal=1.0 - 1e-5,
        recovery_overhead=20.0,
        period=360.0,
    )
    graph = application.new_graph("G1")
    graph.add_process(Process("P1"))
    return application


def fig3_node_type() -> NodeType:
    """Node N1 of Fig. 3 with costs 10/20/40."""
    return NodeType("N1", [HVersion(1, 10.0), HVersion(2, 20.0), HVersion(3, 40.0)])


def fig3_profile() -> ExecutionProfile:
    """WCET/failure probability table of Fig. 3."""
    profile = ExecutionProfile()
    table = {1: (80.0, 4e-2), 2: (100.0, 4e-4), 3: (160.0, 4e-6)}
    for level, (wcet, probability) in table.items():
        profile.add_entry("P1", "N1", level, wcet, probability)
    return profile


@dataclass(frozen=True)
class AlternativeOutcome:
    """Evaluation of one architecture/hardening alternative."""

    label: str
    hardening: Dict[str, int]
    reexecutions: Dict[str, int]
    schedule_length: float
    cost: float
    schedulable: bool
    meets_reliability: bool


def evaluate_fig3_alternatives() -> List[AlternativeOutcome]:
    """Evaluate the three h-versions of Fig. 3 (expected k = 6, 2, 1)."""
    application = fig3_application()
    node_type = fig3_node_type()
    profile = fig3_profile()
    outcomes: List[AlternativeOutcome] = []
    for level in node_type.hardening_levels:
        architecture = Architecture([Node("N1", node_type, hardening=level)])
        mapping = ProcessMapping({"P1": "N1"})
        decision = ReExecutionOpt().optimize(
            EvaluationEngine(application, profile), architecture, mapping
        )
        reexecutions = decision.reexecutions if decision is not None else {"N1": 0}
        schedule = ListScheduler().schedule(
            application, architecture, mapping, profile, reexecutions
        )
        outcomes.append(
            AlternativeOutcome(
                label=f"N1^{level}",
                hardening={"N1": level},
                reexecutions=dict(reexecutions),
                schedule_length=schedule.length,
                cost=architecture.cost,
                schedulable=schedule.length <= application.deadline,
                meets_reliability=decision is not None,
            )
        )
    return outcomes


# ----------------------------------------------------------------------
# Fig. 4 — architecture alternatives for the Fig. 1 application
# ----------------------------------------------------------------------
def _fig4_alternative_specs() -> Dict[str, Tuple[List[Tuple[str, int]], Dict[str, str]]]:
    """Architecture and mapping of each Fig. 4 alternative.

    Each entry maps the figure label to ``(nodes, mapping)`` where ``nodes``
    is a list of ``(node type name, hardening level)`` pairs and ``mapping``
    assigns the four processes to node names.
    """
    return {
        "a": (
            [("N1", 2), ("N2", 2)],
            {"P1": "N1", "P2": "N1", "P3": "N2", "P4": "N2"},
        ),
        "b": ([("N1", 2)], {name: "N1" for name in ("P1", "P2", "P3", "P4")}),
        "c": ([("N2", 2)], {name: "N2" for name in ("P1", "P2", "P3", "P4")}),
        "d": ([("N1", 3)], {name: "N1" for name in ("P1", "P2", "P3", "P4")}),
        "e": ([("N2", 3)], {name: "N2" for name in ("P1", "P2", "P3", "P4")}),
    }


def evaluate_fig4_alternatives() -> Dict[str, AlternativeOutcome]:
    """Evaluate the five architecture alternatives of Fig. 4.

    Expected shape (paper): (a) and (e) schedulable, (b), (c) and (d) not;
    (a) costs 72 and (e) costs 80, so the distributed, moderately hardened
    architecture wins.
    """
    application = fig1_application()
    node_types = {node_type.name: node_type for node_type in fig1_node_types()}
    profile = fig1_profile()
    outcomes: Dict[str, AlternativeOutcome] = {}
    for label, (node_list, assignment) in _fig4_alternative_specs().items():
        nodes = [
            Node(type_name, node_types[type_name], hardening=level)
            for type_name, level in node_list
        ]
        architecture = Architecture(nodes)
        mapping = ProcessMapping(assignment)
        decision = ReExecutionOpt().optimize(
            EvaluationEngine(application, profile), architecture, mapping
        )
        reexecutions = (
            decision.reexecutions
            if decision is not None
            else {node.name: 0 for node in architecture}
        )
        schedule = ListScheduler().schedule(
            application, architecture, mapping, profile, reexecutions
        )
        outcomes[label] = AlternativeOutcome(
            label=label,
            hardening=architecture.hardening_vector(),
            reexecutions=dict(reexecutions),
            schedule_length=schedule.length,
            cost=architecture.cost,
            schedulable=schedule.length <= application.deadline,
            meets_reliability=decision is not None,
        )
    return outcomes


# ----------------------------------------------------------------------
# Appendix A.2 — worked SFP example
# ----------------------------------------------------------------------
def appendix_sfp_example() -> Dict[str, float]:
    """Reproduce the numbers of the Appendix A.2 computation example.

    Returns a dictionary with the same intermediate quantities the paper
    prints (probability of no faults, of exceeding zero/one faults per node,
    the system failure probability and the resulting reliability for k=0 and
    k=1 re-executions per node).
    """
    application = fig1_application()
    node_types = {node_type.name: node_type for node_type in fig1_node_types()}
    profile = fig1_profile()
    architecture = Architecture(
        [
            Node("N1", node_types["N1"], hardening=2),
            Node("N2", node_types["N2"], hardening=2),
        ]
    )
    mapping = ProcessMapping({"P1": "N1", "P2": "N1", "P3": "N2", "P4": "N2"})
    analysis = SFPAnalysis(EvaluationEngine(application, profile), architecture, mapping)

    node1 = architecture.node("N1")
    node2 = architecture.node("N2")
    report_k0 = analysis.evaluate({"N1": 0, "N2": 0})
    report_k1 = analysis.evaluate({"N1": 1, "N2": 1})
    return {
        "pr_no_fault_n1": analysis.probability_no_fault(node1),
        "pr_no_fault_n2": analysis.probability_no_fault(node2),
        "pr_exceeds_0_n1": analysis.node_exceedance(node1, 0),
        "pr_exceeds_1_n1": analysis.node_exceedance(node1, 1),
        "pr_exceeds_1_n2": analysis.node_exceedance(node2, 1),
        "system_failure_k0": report_k0.system_failure_per_iteration,
        "system_failure_k1": report_k1.system_failure_per_iteration,
        "reliability_k0": report_k0.reliability_over_time_unit,
        "reliability_k1": report_k1.reliability_over_time_unit,
        "meets_goal_k0": float(report_k0.meets_goal),
        "meets_goal_k1": float(report_k1.meets_goal),
    }
