"""Cross-validation: Monte-Carlo simulation vs. analytic SFP, per kernel.

Ties the three layers the kernel refactor spans — the analysis kernels, the
design flow that consumes them, and the fault-scenario simulator — together
on one small synthetic benchmark: a design produced *through* a given kernel
backend must be validated by the simulator against the *analytic* bound that
same backend computed.  Because backends are bit-identical, the designs, the
bounds and the simulated replay must all agree across backends too.
"""

from __future__ import annotations

import pytest

from repro.core.architecture import Architecture, Node
from repro.core.design_strategy import DesignStrategy
from repro.core.mapping import MappingAlgorithm
from repro.core.sfp import SFPAnalysis
from repro.engine import EvaluationEngine
from repro.generator.benchmark import build_platform, generate_benchmark_suite
from repro.simulation.fault_simulator import FaultScenarioSimulator

from tests.conftest import SFP_BACKENDS, production_kernels

#: High enough error rate that a 20k-iteration campaign observes faults.
SER = 3e-9
HPD = 25.0

KERNELS = list(SFP_BACKENDS)


@pytest.fixture(scope="module")
def small_benchmark():
    return generate_benchmark_suite(count=1, base_seed=11, process_counts=(8,))[0]


def _design_with_kernel(small_benchmark, kernel_name):
    """Run the OPT strategy end to end on one backend; return the design."""
    node_types, profile = build_platform(
        small_benchmark, ser_per_cycle=SER, hardening_performance_degradation=HPD
    )
    with production_kernels(sfp=SFP_BACKENDS[kernel_name]):
        engine = EvaluationEngine(small_benchmark.application, profile)
    algorithm = MappingAlgorithm(
        max_iterations=2, stop_after_no_improvement=1, max_candidates=2
    )
    result = DesignStrategy(node_types, algorithm).explore(engine)
    return result, node_types, profile


@pytest.mark.parametrize("kernel_name", KERNELS)
def test_simulator_respects_analytic_bound(small_benchmark, kernel_name):
    result, node_types, profile = _design_with_kernel(small_benchmark, kernel_name)
    assert result.feasible, "benchmark/setting must admit a design"

    types_by_name = {node_type.name: node_type for node_type in node_types}
    architecture = Architecture(
        [
            Node(name, types_by_name[type_name], hardening=result.hardening[name])
            for name, type_name in result.node_types.items()
        ]
    )
    simulator = FaultScenarioSimulator(iterations=20_000, seed=4242)
    summary = simulator.simulate(
        small_benchmark.application,
        architecture,
        result.mapping,
        profile,
        result.schedule,
        reexecutions=result.reexecutions,
    )
    # Reliability: observed unrecovered rate within statistical tolerance of
    # the analytic (pessimistic) SFP bound.
    assert summary.respects_sfp_bound
    # Timing: recovered iterations never exceed the analytic worst case.
    assert summary.timing_validated

    # The analytic bound recomputed directly on this backend matches what
    # the simulator derived internally.
    with production_kernels(sfp=SFP_BACKENDS[kernel_name]):
        engine = EvaluationEngine(small_benchmark.application, profile)
    analysis = SFPAnalysis(engine, architecture, result.mapping)
    assert (
        analysis.system_failure_per_iteration(result.reexecutions)
        == summary.predicted_failure_bound
    )


def test_designs_identical_across_kernels(small_benchmark):
    """The same exploration on every backend lands on the same design."""
    outcomes = [
        _design_with_kernel(small_benchmark, kernel_name)[0] for kernel_name in KERNELS
    ]
    first = outcomes[0]
    for other in outcomes[1:]:
        assert other == first
