"""Fault-injection campaign: derive p_ijh tables from a processor model.

The paper assumes that the per-process failure probabilities on every
h-version come from fault-injection experiments.  This example shows the
substitute shipped with the library: an abstract processor model whose
flip-flops are selectively hardened, a Monte-Carlo injection campaign that
estimates the failure probability of each execution, and the resulting
execution profile being fed straight into the SFP analysis to size the number
of re-executions.

Run with:

    python examples/fault_injection_campaign.py
"""

from __future__ import annotations

from repro import (
    Application,
    Architecture,
    EvaluationEngine,
    Message,
    Node,
    Process,
    ReExecutionOpt,
)
from repro.core.architecture import linear_cost_node_type
from repro.core.mapping_model import ProcessMapping
from repro.experiments.results import format_table
from repro.faults.hardening import SelectiveHardeningPlan, apply_selective_hardening
from repro.faults.injection import FaultInjectionCampaign
from repro.faults.processor import ProcessorModel
from repro.scheduling.list_scheduler import ListScheduler


def main() -> None:
    # A small control application: sense -> compute -> actuate.
    application = Application(
        name="injection-demo",
        deadline=120.0,
        reliability_goal=1.0 - 1e-5,
        recovery_overhead=1.5,
    )
    graph = application.new_graph("loop")
    graph.add_process(Process("sense", nominal_wcet=6.0))
    graph.add_process(Process("compute", nominal_wcet=14.0))
    graph.add_process(Process("actuate", nominal_wcet=8.0))
    graph.add_message(Message("m1", "sense", "compute", transmission_time=0.5))
    graph.add_message(Message("m2", "compute", "actuate", transmission_time=0.5))

    # The ECU and its hardening ladder (5 h-versions).
    ecu = ProcessorModel(
        name="ECU",
        flip_flops=80_000,
        upset_rate_per_ff_cycle=2e-12,
        clock_mhz=200.0,
        architectural_derating=0.1,
    )
    plan = SelectiveHardeningPlan.linear(5, max_hardened_fraction=0.99, max_slowdown_percent=25.0)
    node_types = [linear_cost_node_type("ECU", base_cost=3.0, levels=5)]

    print("per-cycle error probability per hardening level:")
    for level in plan.levels:
        hardened = apply_selective_hardening(ecu, plan, level)
        print(f"  h={level}: {hardened.error_probability_per_cycle():.3e}")

    campaign = FaultInjectionCampaign(runs=20_000, seed=2009)
    profile = campaign.profile_application(application, node_types, {"ECU": ecu}, plan)

    rows = []
    for process in application.process_names():
        for level in (1, 3, 5):
            rows.append(
                [
                    process,
                    level,
                    f"{profile.wcet(process, 'ECU', level):.2f}",
                    f"{profile.failure_probability(process, 'ECU', level):.3e}",
                ]
            )
    print()
    print(
        format_table(
            ["process", "h", "WCET (ms)", "injected failure probability"],
            rows,
            title="Execution profile estimated by the Monte-Carlo campaign",
        )
    )

    # Use the injected profile exactly like the analytic one: how many
    # re-executions does each hardening level need to reach the goal?
    print()
    print("re-executions required to meet rho = 1 - 1e-5 per hour:")
    mapping = ProcessMapping({name: "ECU" for name in application.process_names()})
    engine = EvaluationEngine(application, profile)
    for level in plan.levels:
        architecture = Architecture([Node("ECU", node_types[0], hardening=level)])
        decision = ReExecutionOpt().optimize(engine, architecture, mapping)
        if decision is None:
            print(f"  h={level}: reliability goal unreachable")
            continue
        schedule = ListScheduler().schedule(
            application, architecture, mapping, profile, decision.reexecutions
        )
        verdict = "meets deadline" if schedule.length <= application.deadline else "misses deadline"
        print(
            f"  h={level}: k={decision.reexecutions['ECU']}, worst-case schedule "
            f"{schedule.length:.1f} ms ({verdict})"
        )


if __name__ == "__main__":
    main()
