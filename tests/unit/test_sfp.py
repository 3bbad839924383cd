"""Unit tests for the System Failure Probability analysis (Appendix A)."""

from __future__ import annotations

import math

import pytest

from repro.core.exceptions import ModelError, ReproError
from repro.core.mapping_model import ProcessMapping
from repro.core.sfp import (
    SFPAnalysis,
    complete_homogeneous_sum,
    enumerate_fault_scenarios,
    probability_exactly,
    probability_exceeds,
    probability_no_fault,
    reliability_over_time_unit,
    system_failure_probability,
)
from repro.engine import EvaluationEngine


class TestProbabilityNoFault:
    def test_empty_list_gives_one(self):
        assert probability_no_fault([]) == 1.0

    def test_single_process(self):
        assert probability_no_fault([0.1]) == pytest.approx(0.9)

    def test_paper_value(self):
        assert probability_no_fault([1.2e-5, 1.3e-5]) == pytest.approx(
            0.99997500015, abs=1e-12
        )

    def test_rounded_down(self):
        exact = (1 - 1.2e-5) * (1 - 1.3e-5)
        assert probability_no_fault([1.2e-5, 1.3e-5]) <= exact

    def test_invalid_probability_rejected(self):
        with pytest.raises(ValueError):
            probability_no_fault([1.5])


class TestCompleteHomogeneousSum:
    def test_zero_faults_is_one(self):
        assert complete_homogeneous_sum([0.1, 0.2], 0) == 1.0

    def test_empty_probabilities_with_faults_is_zero(self):
        assert complete_homogeneous_sum([], 3) == 0.0

    def test_one_fault_is_plain_sum(self):
        assert complete_homogeneous_sum([0.1, 0.2, 0.3], 1) == pytest.approx(0.6)

    def test_two_faults_two_processes(self):
        # Multisets of size 2 over {a, b}: aa, ab, bb.
        a, b = 0.1, 0.2
        expected = a * a + a * b + b * b
        assert complete_homogeneous_sum([a, b], 2) == pytest.approx(expected)

    def test_matches_enumeration_reference(self):
        probabilities = [0.01, 0.02, 0.03, 0.04]
        for faults in range(5):
            dp_value = complete_homogeneous_sum(probabilities, faults)
            reference = sum(enumerate_fault_scenarios(probabilities, faults))
            assert dp_value == pytest.approx(reference, rel=1e-12)

    def test_negative_faults_rejected(self):
        with pytest.raises(ModelError):
            complete_homogeneous_sum([0.1], -1)


class TestEnumerateFaultScenarios:
    def test_number_of_scenarios_is_multiset_coefficient(self):
        # Combinations with repetition of f on m: C(m + f - 1, f).
        probabilities = [0.1, 0.2, 0.3]
        scenarios = enumerate_fault_scenarios(probabilities, 3)
        assert len(scenarios) == math.comb(3 + 3 - 1, 3)

    def test_paper_example_three_faults_on_three_processes(self):
        # The Appendix A example: 3 faults over P1, P2, P3 gives C(5,3) = 10.
        scenarios = enumerate_fault_scenarios([1e-3, 1e-3, 1e-3], 3)
        assert len(scenarios) == 10


class TestProbabilityExactly:
    def test_paper_value_one_fault(self):
        assert probability_exactly([1.2e-5, 1.3e-5], 1) == pytest.approx(
            0.00002499937, abs=1e-12
        )

    def test_zero_faults_equals_no_fault(self):
        probabilities = [0.01, 0.05]
        assert probability_exactly(probabilities, 0) == probability_no_fault(probabilities)

    def test_decreasing_in_faults_for_small_probabilities(self):
        probabilities = [1e-4, 2e-4, 3e-4]
        values = [probability_exactly(probabilities, f) for f in range(1, 5)]
        assert values == sorted(values, reverse=True)


class TestProbabilityExceeds:
    def test_paper_values(self):
        probabilities = [1.2e-5, 1.3e-5]
        assert probability_exceeds(probabilities, 0) == pytest.approx(2.499985e-05, abs=1e-11)
        assert probability_exceeds(probabilities, 1) == pytest.approx(4.8e-10, abs=1e-12)

    def test_zero_for_fault_free_processes(self):
        assert probability_exceeds([0.0, 0.0], 0) == 0.0

    def test_monotone_decreasing_in_budget(self):
        probabilities = [1e-3, 2e-3, 3e-3]
        values = [probability_exceeds(probabilities, k) for k in range(5)]
        assert values == sorted(values, reverse=True)

    def test_single_process_budget_zero_is_its_probability(self):
        assert probability_exceeds([0.25], 0) == pytest.approx(0.25)

    def test_negative_budget_rejected(self):
        with pytest.raises(ModelError):
            probability_exceeds([0.1], -1)

    def test_empty_node_never_fails(self):
        assert probability_exceeds([], 0) == 0.0


class TestSystemFailureProbability:
    def test_paper_union_value(self):
        assert system_failure_probability([4.8e-10, 4.8e-10]) == pytest.approx(
            9.6e-10, abs=1e-13
        )

    def test_single_node_is_identity(self):
        assert system_failure_probability([1e-6]) == pytest.approx(1e-6)

    def test_empty_system_never_fails(self):
        assert system_failure_probability([]) == 0.0

    def test_union_at_least_max_component(self):
        values = [1e-6, 5e-7, 2e-6]
        assert system_failure_probability(values) >= max(values)

    def test_invalid_probability_rejected(self):
        with pytest.raises(ValueError):
            system_failure_probability([2.0])


class TestReliabilityOverTimeUnit:
    def test_paper_k1_reliability(self):
        reliability = reliability_over_time_unit(9.6e-10, 3.6e6, 360.0)
        assert reliability == pytest.approx(0.99999040005, abs=1e-9)

    def test_paper_k0_reliability_fails_goal(self):
        reliability = reliability_over_time_unit(4.999908e-05, 3.6e6, 360.0)
        assert reliability == pytest.approx(0.6065, abs=1e-3)
        assert reliability < 1 - 1e-5

    def test_zero_failure_gives_perfect_reliability(self):
        assert reliability_over_time_unit(0.0, 3.6e6, 1.0) == 1.0

    def test_invalid_period_rejected(self):
        with pytest.raises(ValueError):
            reliability_over_time_unit(0.1, 3.6e6, 0.0)


class TestSFPAnalysis:
    def test_node_failure_probabilities_respect_hardening(
        self, fig1_app, fig1_prof, fig4a_architecture, fig4a_mapping
    ):
        analysis = SFPAnalysis(
            EvaluationEngine(fig1_app, fig1_prof), fig4a_architecture, fig4a_mapping
        )
        node1 = fig4a_architecture.node("N1")
        assert analysis.node_failure_probabilities(node1) == pytest.approx([1.2e-5, 1.3e-5])
        node1.hardening = 3
        assert analysis.node_failure_probabilities(node1) == pytest.approx(
            [1.2e-10, 1.3e-10]
        )

    def test_evaluate_appendix_example(
        self, fig1_app, fig1_prof, fig4a_architecture, fig4a_mapping
    ):
        analysis = SFPAnalysis(
            EvaluationEngine(fig1_app, fig1_prof), fig4a_architecture, fig4a_mapping
        )
        report_k0 = analysis.evaluate({"N1": 0, "N2": 0})
        report_k1 = analysis.evaluate({"N1": 1, "N2": 1})
        assert not report_k0.meets_goal
        assert report_k1.meets_goal
        assert report_k1.system_failure_per_iteration == pytest.approx(9.6e-10, abs=1e-13)
        assert report_k1.reliability_over_time_unit == pytest.approx(0.9999904, abs=1e-7)
        assert report_k1.reexecutions == {"N1": 1, "N2": 1}
        assert (
            report_k1.reliability_over_time_unit
            > report_k1.reliability_goal
            > report_k0.reliability_over_time_unit
        )

    def test_missing_budget_defaults_to_zero(
        self, fig1_app, fig1_prof, fig4a_architecture, fig4a_mapping
    ):
        analysis = SFPAnalysis(
            EvaluationEngine(fig1_app, fig1_prof), fig4a_architecture, fig4a_mapping
        )
        report = analysis.evaluate({})
        assert report.reexecutions == {"N1": 0, "N2": 0}

    def test_negative_budget_rejected(
        self, fig1_app, fig1_prof, fig4a_architecture, fig4a_mapping
    ):
        analysis = SFPAnalysis(
            EvaluationEngine(fig1_app, fig1_prof), fig4a_architecture, fig4a_mapping
        )
        with pytest.raises(ModelError):
            analysis.evaluate({"N1": -1})

    @pytest.mark.parametrize(
        "budgets",
        [{"n1": 1, "N2": 1}, {"N1": True}, {"N1": 1.5}, {"N1": "1"}, {"N1": -1}],
        ids=["unknown-node", "bool", "float", "str", "negative"],
    )
    @pytest.mark.parametrize("entry_point", ["evaluate", "system_failure_per_iteration"])
    def test_bad_budget_raises_a_repro_error(
        self, fig1_app, fig1_prof, fig4a_architecture, fig4a_mapping, entry_point, budgets
    ):
        """Budgets are checked like the list scheduler's: none is dropped,
        coerced or left to fail inside the kernel."""
        analysis = SFPAnalysis(
            EvaluationEngine(fig1_app, fig1_prof), fig4a_architecture, fig4a_mapping
        )
        with pytest.raises(ReproError):
            getattr(analysis, entry_point)(budgets)

    @pytest.mark.parametrize("budget", [True, 1.5, "1", -1])
    def test_bad_node_budget_raises_a_repro_error(
        self, fig1_app, fig1_prof, fig4a_architecture, fig4a_mapping, budget
    ):
        analysis = SFPAnalysis(
            EvaluationEngine(fig1_app, fig1_prof), fig4a_architecture, fig4a_mapping
        )
        with pytest.raises(ReproError):
            analysis.node_exceedance(fig4a_architecture.node("N1"), budget)

    def test_empty_node_contributes_nothing(self, fig1_app, fig1_prof, fig4a_architecture):
        mapping = ProcessMapping(
            {"P1": "N1", "P2": "N1", "P3": "N1", "P4": "N1"}
        )
        analysis = SFPAnalysis(EvaluationEngine(fig1_app, fig1_prof), fig4a_architecture, mapping)
        node2 = fig4a_architecture.node("N2")
        assert analysis.node_exceedance(node2, 0) == 0.0
