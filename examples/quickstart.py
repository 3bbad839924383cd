"""Quickstart: optimize the paper's four-process example application.

This example builds the application of Fig. 1 (four processes, two candidate
node types with three h-versions each), runs the paper's OPT design strategy
and prints the selected architecture, hardening levels, re-execution counts
and the static schedule.

Run with:

    python examples/quickstart.py
"""

from __future__ import annotations

from repro import (
    Application,
    DesignStrategy,
    EvaluationEngine,
    ExecutionProfile,
    MappingAlgorithm,
    Message,
    NodeType,
    HVersion,
    Process,
)


def build_application() -> Application:
    """The Fig. 1 application: deadline 360 ms, rho = 1 - 1e-5, mu = 15 ms."""
    application = Application(
        name="quickstart",
        deadline=360.0,
        reliability_goal=1.0 - 1e-5,
        recovery_overhead=15.0,
    )
    graph = application.new_graph("G1")
    for name in ("P1", "P2", "P3", "P4"):
        graph.add_process(Process(name))
    graph.add_message(Message("m1", "P1", "P2", transmission_time=10.0))
    graph.add_message(Message("m2", "P1", "P3", transmission_time=10.0))
    graph.add_message(Message("m3", "P2", "P4", transmission_time=10.0))
    graph.add_message(Message("m4", "P3", "P4", transmission_time=10.0))
    return application


def build_platform() -> tuple[list[NodeType], ExecutionProfile]:
    """Two node types with three h-versions each and the Fig. 1 tables."""
    node_types = [
        NodeType("N1", [HVersion(1, 16.0), HVersion(2, 32.0), HVersion(3, 64.0)]),
        NodeType("N2", [HVersion(1, 20.0), HVersion(2, 40.0), HVersion(3, 80.0)]),
    ]
    wcet = {
        "N1": {"P1": (60, 75, 90), "P2": (75, 90, 105), "P3": (60, 75, 90), "P4": (75, 90, 105)},
        "N2": {"P1": (50, 60, 75), "P2": (65, 75, 90), "P3": (50, 60, 75), "P4": (65, 75, 90)},
    }
    failure = {
        "N1": {"P1": 1.2e-3, "P2": 1.3e-3, "P3": 1.4e-3, "P4": 1.6e-3},
        "N2": {"P1": 1.0e-3, "P2": 1.2e-3, "P3": 1.2e-3, "P4": 1.3e-3},
    }
    profile = ExecutionProfile()
    for node, processes in wcet.items():
        for process, times in processes.items():
            for level, time in enumerate(times, start=1):
                # Each hardening level reduces the failure probability by
                # roughly two orders of magnitude (as in the paper's tables).
                probability = failure[node][process] * 100.0 ** (-(level - 1))
                profile.add_entry(process, node, level, float(time), probability)
    return node_types, profile


def main() -> None:
    application = build_application()
    node_types, profile = build_platform()

    strategy = DesignStrategy(
        node_types,
        mapping_algorithm=MappingAlgorithm(max_iterations=6, stop_after_no_improvement=3),
    )
    # The engine binds the (application, profile) context the strategy
    # explores and memoizes every design point it evaluates.
    result = strategy.explore(EvaluationEngine(application, profile))

    print(result.summary())
    print()
    print(f"architecture cost      : {result.cost:.1f} units")
    print(f"worst-case schedule    : {result.schedule_length:.1f} ms (deadline {result.deadline:.0f} ms)")
    print(f"meets reliability goal : {result.meets_reliability}")
    print()
    print("hardening / re-executions per node:")
    for node, level in sorted(result.hardening.items()):
        print(f"  {node}: h-version {level}, k = {result.reexecutions.get(node, 0)}")
    print()
    print("process mapping:")
    for process, node in sorted(result.mapping.as_dict().items()):
        print(f"  {process} -> {node}")
    print()
    print("static schedule (fault-free windows + recovery slack):")
    print(result.schedule.as_gantt_text())


if __name__ == "__main__":
    main()
