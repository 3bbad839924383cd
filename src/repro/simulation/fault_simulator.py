"""Fault-scenario simulation of static schedules with re-execution.

The simulator validates the two guarantees the paper's design flow makes:

1. **Reliability** — the probability that, during one application iteration,
   some node experiences more transient faults than its re-execution budget
   ``k_j`` is bounded by the SFP analysis.  The simulator injects faults per
   process execution with the profile's ``p_ijh`` and counts the iterations
   in which a node exceeds its budget.

2. **Timing** — whenever the fault count on a node stays within its budget,
   the node finishes no later than its analytic worst case (root completion
   plus the shared recovery slack ``k_j * (max_i t_ijh + mu_i)``).

The replay is *per node*, mirroring the paper's schedule model: each node
executes its processes in root-schedule order, every re-execution adds the
recovery overhead plus the process WCET, and the realized completion time is
compared against the analytic bound.  Cross-node propagation of recovery
delays is outside the model (the paper reserves the slack per node, not along
end-to-end paths); the simulator therefore validates exactly what the
analysis claims, no more and no less.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

import numpy as np

from repro.core.application import Application
from repro.core.architecture import Architecture
from repro.core.exceptions import ModelError
from repro.core.mapping_model import ProcessMapping
from repro.core.profile import ExecutionProfile
from repro.core.sfp import SFPAnalysis
from repro.engine.engine import EvaluationEngine
from repro.scheduling.schedule import Schedule


@dataclass(frozen=True)
class IterationOutcome:
    """What happened during one simulated application iteration."""

    faults_per_node: Dict[str, int]
    recovered: bool
    node_completion: Dict[str, float]
    within_worst_case: bool

    @property
    def total_faults(self) -> int:
        return sum(self.faults_per_node.values())


@dataclass
class SimulationSummary:
    """Aggregate statistics over all simulated iterations."""

    iterations: int
    unrecovered_iterations: int
    iterations_with_faults: int
    worst_case_violations: int
    observed_failure_rate: float
    predicted_failure_bound: float
    max_relative_completion: float
    total_faults_injected: int
    sample_outcomes: List[IterationOutcome] = field(default_factory=list)

    @property
    def respects_sfp_bound(self) -> bool:
        """Whether the observed unrecovered rate stays under the SFP bound.

        A small statistical allowance (three standard deviations of the
        binomial estimator around the bound) is included so the check does not
        flake for bounds close to the observable resolution.
        """
        allowance = 3.0 * np.sqrt(
            max(self.predicted_failure_bound, 1.0 / self.iterations) / self.iterations
        )
        return self.observed_failure_rate <= self.predicted_failure_bound + allowance

    @property
    def timing_validated(self) -> bool:
        """True when no recovered iteration exceeded the analytic worst case."""
        return self.worst_case_violations == 0


class FaultScenarioSimulator:
    """Monte-Carlo replay of a fault-tolerant static schedule.

    Parameters
    ----------
    iterations:
        Number of application iterations to simulate.
    seed:
        Seed of the NumPy generator; simulations are reproducible.
    keep_samples:
        Number of per-iteration outcomes to retain in the summary (useful for
        debugging and for the examples; keeping all of them for large runs
        would be wasteful).
    """

    def __init__(
        self,
        iterations: int = 10_000,
        seed: Optional[int] = 20_09,
        keep_samples: int = 10,
    ) -> None:
        if iterations < 1:
            raise ModelError(f"iterations must be >= 1, got {iterations}")
        self.iterations = iterations
        self.keep_samples = keep_samples
        self._rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------
    def simulate(
        self,
        application: Application,
        architecture: Architecture,
        mapping: ProcessMapping,
        profile: ExecutionProfile,
        schedule: Schedule,
        reexecutions: Optional[Mapping[str, int]] = None,
    ) -> SimulationSummary:
        """Simulate ``iterations`` executions of one static schedule."""
        mapping.validate(application, architecture, profile)
        budgets = dict(schedule.reexecutions)
        if reexecutions is not None:
            budgets.update(reexecutions)

        analysis = SFPAnalysis(EvaluationEngine(application, profile), architecture, mapping)
        predicted_bound = analysis.system_failure_per_iteration(budgets)

        node_plans = self._build_node_plans(application, architecture, mapping, profile, schedule)
        worst_case = {
            node: schedule.worst_case_node_completion(node) for node in schedule.nodes()
        }

        unrecovered = 0
        faulty_iterations = 0
        violations = 0
        total_faults = 0
        max_relative = 0.0
        samples: List[IterationOutcome] = []

        for _ in range(self.iterations):
            outcome = self._simulate_iteration(node_plans, budgets, worst_case)
            total_faults += outcome.total_faults
            if outcome.total_faults > 0:
                faulty_iterations += 1
            if not outcome.recovered:
                unrecovered += 1
            elif not outcome.within_worst_case:
                violations += 1
            for node, completion in outcome.node_completion.items():
                bound = worst_case.get(node, 0.0)
                if bound > 0.0:
                    max_relative = max(max_relative, completion / bound)
            if len(samples) < self.keep_samples and outcome.total_faults > 0:
                samples.append(outcome)

        return SimulationSummary(
            iterations=self.iterations,
            unrecovered_iterations=unrecovered,
            iterations_with_faults=faulty_iterations,
            worst_case_violations=violations,
            observed_failure_rate=unrecovered / self.iterations,
            predicted_failure_bound=predicted_bound,
            max_relative_completion=max_relative,
            total_faults_injected=total_faults,
            sample_outcomes=samples,
        )

    # ------------------------------------------------------------------
    def _build_node_plans(
        self,
        application: Application,
        architecture: Architecture,
        mapping: ProcessMapping,
        profile: ExecutionProfile,
        schedule: Schedule,
    ) -> Dict[str, List[Dict[str, float]]]:
        """Per-node replay plans: root start, WCET, recovery overhead, p."""
        plans: Dict[str, List[Dict[str, float]]] = {}
        for node in architecture:
            entries = schedule.processes_on(node.name)
            plan = []
            for entry in entries:
                plan.append(
                    {
                        "process": entry.process,
                        "root_start": entry.start,
                        "wcet": profile.wcet_on_node(entry.process, node),
                        "recovery": application.recovery_overhead_of(entry.process),
                        "failure_probability": profile.failure_probability_on_node(
                            entry.process, node
                        ),
                    }
                )
            plans[node.name] = plan
        return plans

    def _simulate_iteration(
        self,
        node_plans: Mapping[str, List[Dict[str, float]]],
        budgets: Mapping[str, int],
        worst_case: Mapping[str, float],
    ) -> IterationOutcome:
        """Replay one iteration on every node independently."""
        faults_per_node: Dict[str, int] = {}
        completions: Dict[str, float] = {}
        recovered = True
        within_worst_case = True

        for node, plan in node_plans.items():
            budget = budgets.get(node, 0)
            faults_used = 0
            clock = 0.0
            node_failed = False
            for step in plan:
                start = max(clock, step["root_start"])
                clock = start + step["wcet"]
                # Re-execute while faults hit this execution and budget remains.
                while self._rng.random() < step["failure_probability"]:
                    faults_used += 1
                    if faults_used > budget:
                        node_failed = True
                        break
                    clock += step["recovery"] + step["wcet"]
                if node_failed:
                    break
            faults_per_node[node] = faults_used
            completions[node] = clock
            if node_failed:
                recovered = False
            elif plan and clock > worst_case.get(node, 0.0) + 1e-9:
                within_worst_case = False

        return IterationOutcome(
            faults_per_node=faults_per_node,
            recovered=recovered,
            node_completion=completions,
            within_worst_case=within_worst_case,
        )
