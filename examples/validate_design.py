"""Validate an optimized design with Monte-Carlo fault injection.

The design flow promises two things: the reliability goal is met (SFP
analysis) and the deadline holds in the worst case (recovery-slack schedule).
This example closes the loop: it optimizes the paper's four-process example
with the OPT strategy and then *simulates* the resulting static schedule for
tens of thousands of iterations with faults injected at the profile's
probabilities, reporting how the observed behaviour compares with the
analytic bounds.

Run with:

    python examples/validate_design.py
"""

from __future__ import annotations

from repro import DesignStrategy, EvaluationEngine, FaultScenarioSimulator, MappingAlgorithm
from repro.core.architecture import Architecture, Node
from repro.experiments.motivational import fig1_application, fig1_node_types, fig1_profile
from repro.experiments.results import format_table
from repro.scheduling.list_scheduler import ListScheduler


def main() -> None:
    application = fig1_application()
    node_types = list(fig1_node_types())
    profile = fig1_profile()

    # 1. Optimize: architecture, hardening, mapping, re-executions, schedule.
    strategy = DesignStrategy(
        node_types, mapping_algorithm=MappingAlgorithm(max_iterations=6)
    )
    design = strategy.explore(EvaluationEngine(application, profile))
    print(design.summary())

    # 2. Rebuild the concrete architecture the design describes.
    types_by_name = {node_type.name: node_type for node_type in node_types}
    architecture = Architecture(
        [
            Node(name, types_by_name[type_name], hardening=design.hardening[name])
            for name, type_name in design.node_types.items()
        ]
    )
    schedule = ListScheduler().schedule(
        application, architecture, design.mapping, profile, design.reexecutions
    )

    # 3. Simulate 50 000 application iterations with fault injection.
    simulator = FaultScenarioSimulator(iterations=50_000, seed=42)
    summary = simulator.simulate(
        application, architecture, design.mapping, profile, schedule
    )

    print()
    print(
        format_table(
            ["quantity", "value"],
            [
                ["iterations simulated", summary.iterations],
                ["iterations with at least one fault", summary.iterations_with_faults],
                ["total faults injected", summary.total_faults_injected],
                ["iterations exceeding the re-execution budgets", summary.unrecovered_iterations],
                ["observed per-iteration failure rate", f"{summary.observed_failure_rate:.3e}"],
                ["SFP bound per iteration", f"{summary.predicted_failure_bound:.3e}"],
                ["nodes ever later than the analytic worst case", summary.worst_case_violations],
                ["max node completion / analytic bound", f"{summary.max_relative_completion:.3f}"],
            ],
            title="Monte-Carlo validation of the optimized design",
        )
    )
    print()
    if summary.respects_sfp_bound and summary.timing_validated:
        print(
            "validation PASSED: the simulated behaviour stays within both the SFP\n"
            "reliability bound and the recovery-slack timing bound."
        )
    else:
        print("validation FAILED — see the counters above.")


if __name__ == "__main__":
    main()
