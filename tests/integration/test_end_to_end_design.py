"""Integration test: a full design flow on a generated benchmark.

Generates a synthetic application, derives the platform for one technology
setting, runs the three strategies and cross-checks the produced designs with
the independent analysis utilities (SFP evaluation, schedule validation, cost
accounting) — i.e. the optimizer's claims are re-verified from scratch.
"""

from __future__ import annotations

import pytest

from repro.core.architecture import Architecture, Node
from repro.core.design_strategy import DesignStrategy
from repro.core.mapping import MappingAlgorithm
from repro.core.redundancy import POLICIES
from repro.core.sfp import SFPAnalysis
from repro.generator.benchmark import BenchmarkConfig, build_platform, generate_benchmark
from repro.scheduling.list_scheduler import ListScheduler


@pytest.fixture(scope="module")
def problem():
    benchmark = generate_benchmark(
        seed=101, config=BenchmarkConfig(n_processes=12, n_node_types=3)
    )
    node_types, profile = build_platform(
        benchmark, ser_per_cycle=1e-11, hardening_performance_degradation=25.0
    )
    return benchmark, node_types, profile


@pytest.fixture(scope="module")
def results(problem):
    benchmark, node_types, profile = problem
    return {
        policy: DesignStrategy(
            node_types,
            MappingAlgorithm(
                policy, max_iterations=3, stop_after_no_improvement=2, max_candidates=2
            ),
        ).explore(benchmark.application, profile)
        for policy in POLICIES
    }


class TestEndToEndDesigns:
    def test_opt_produces_a_feasible_design(self, results):
        assert results["OPT"].feasible

    def test_opt_cost_is_competitive_with_baselines(self, results):
        # OPT and the baselines all rely on small tabu searches, so on a single
        # instance OPT may settle on a slightly different mapping than MIN;
        # the paper's claim is about the aggregate acceptance rate (checked in
        # test_synthetic_experiment).  Here we assert OPT never loses to the
        # expensive MAX baseline and stays in the same cost regime as MIN.
        opt = results["OPT"]
        if results["MAX"].feasible:
            assert opt.cost <= results["MAX"].cost + 1e-9
        if results["MIN"].feasible:
            assert opt.cost <= results["MIN"].cost * 1.5 + 1e-9

    def test_reported_schedule_is_internally_consistent(self, results, problem):
        benchmark, node_types, profile = problem
        result = results["OPT"]
        result.schedule.validate()
        assert result.schedule_length == pytest.approx(result.schedule.length)
        assert result.schedule_length <= benchmark.application.deadline

    def test_reported_reliability_is_reproducible(self, results, problem):
        benchmark, node_types, profile = problem
        result = results["OPT"]
        types_by_name = {node_type.name: node_type for node_type in node_types}
        architecture = Architecture(
            [
                Node(name, types_by_name[type_name], hardening=result.hardening[name])
                for name, type_name in result.node_types.items()
            ]
        )
        analysis = SFPAnalysis(
            benchmark.application, architecture, result.mapping, profile
        )
        report = analysis.evaluate(result.reexecutions)
        assert report.meets_goal

    def test_reported_schedule_is_reproducible(self, results, problem):
        benchmark, node_types, profile = problem
        result = results["OPT"]
        types_by_name = {node_type.name: node_type for node_type in node_types}
        architecture = Architecture(
            [
                Node(name, types_by_name[type_name], hardening=result.hardening[name])
                for name, type_name in result.node_types.items()
            ]
        )
        schedule = ListScheduler().schedule(
            benchmark.application,
            architecture,
            result.mapping,
            profile,
            result.reexecutions,
        )
        assert schedule.length == pytest.approx(result.schedule_length)

    def test_reported_cost_matches_architecture(self, results, problem):
        _, node_types, _ = problem
        result = results["OPT"]
        types_by_name = {node_type.name: node_type for node_type in node_types}
        expected_cost = sum(
            types_by_name[type_name].cost(result.hardening[name])
            for name, type_name in result.node_types.items()
        )
        assert result.cost == pytest.approx(expected_cost)
