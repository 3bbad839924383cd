"""Property-based tests for the SFP analysis invariants."""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.core.sfp import (
    complete_homogeneous_sum,
    enumerate_fault_scenarios,
    probability_exactly,
    probability_exceeds,
    probability_no_fault,
    reliability_over_time_unit,
    system_failure_probability,
)

#: Realistic per-process failure probabilities (the paper works with 1e-10..1e-2).
probabilities = st.lists(
    st.floats(min_value=0.0, max_value=0.05, allow_nan=False, allow_infinity=False),
    min_size=0,
    max_size=8,
)
non_empty_probabilities = st.lists(
    st.floats(min_value=1e-12, max_value=0.05, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=8,
)


class TestNoFaultProperties:
    @given(probabilities)
    def test_result_is_a_probability(self, values):
        result = probability_no_fault(values)
        assert 0.0 <= result <= 1.0

    @given(non_empty_probabilities)
    def test_adding_a_process_never_increases_survival(self, values):
        with_all = probability_no_fault(values)
        without_last = probability_no_fault(values[:-1])
        assert with_all <= without_last + 1e-12

    @given(probabilities)
    def test_never_exceeds_exact_product(self, values):
        exact = 1.0
        for value in values:
            exact *= 1.0 - value
        assert probability_no_fault(values) <= exact + 1e-15


class TestHomogeneousSumProperties:
    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=0.1, allow_nan=False), min_size=0, max_size=5
        ),
        st.integers(min_value=0, max_value=4),
    )
    def test_dp_matches_enumeration(self, values, faults):
        dp_value = complete_homogeneous_sum(values, faults)
        reference = sum(enumerate_fault_scenarios(values, faults))
        assert abs(dp_value - reference) <= 1e-12 + 1e-9 * reference

    @given(non_empty_probabilities, st.integers(min_value=0, max_value=5))
    def test_non_negative(self, values, faults):
        assert complete_homogeneous_sum(values, faults) >= 0.0


class TestExceedanceProperties:
    @given(non_empty_probabilities, st.integers(min_value=0, max_value=6))
    def test_result_is_a_probability(self, values, budget):
        assert 0.0 <= probability_exceeds(values, budget) <= 1.0

    @given(non_empty_probabilities, st.integers(min_value=0, max_value=5))
    def test_monotone_decreasing_in_budget(self, values, budget):
        assert probability_exceeds(values, budget + 1) <= probability_exceeds(values, budget) + 1e-12

    @given(non_empty_probabilities, st.integers(min_value=0, max_value=4))
    def test_total_probability_never_exceeds_one(self, values, budget):
        survival = probability_no_fault(values)
        survival += sum(probability_exactly(values, f) for f in range(1, budget + 1))
        # The (rounded) split into disjoint events stays a valid distribution.
        assert survival <= 1.0 + 1e-9

    @given(non_empty_probabilities)
    def test_exceeding_zero_with_positive_probabilities_is_positive(self, values):
        assert probability_exceeds(values, 0) > 0.0


class TestSystemUnionProperties:
    node_probabilities = st.lists(
        st.floats(min_value=0.0, max_value=0.01, allow_nan=False), min_size=1, max_size=6
    )

    @given(node_probabilities)
    def test_union_bounds(self, values):
        union = system_failure_probability(values)
        assert max(values) <= union + 1e-12
        assert union <= min(1.0, sum(values) + 1e-9)

    @given(node_probabilities)
    def test_union_is_a_probability(self, values):
        assert 0.0 <= system_failure_probability(values) <= 1.0

    @given(node_probabilities, st.floats(min_value=0.0, max_value=0.01))
    def test_adding_a_node_never_helps(self, values, extra):
        assert system_failure_probability(values + [extra]) >= system_failure_probability(values) - 1e-12


class TestReliabilityProperties:
    @given(
        st.floats(min_value=0.0, max_value=1e-4),
        st.floats(min_value=1.0, max_value=1e4),
    )
    def test_reliability_is_a_probability(self, failure, period):
        reliability = reliability_over_time_unit(failure, 3.6e6, period)
        assert 0.0 <= reliability <= 1.0

    @given(
        st.floats(min_value=1e-12, max_value=1e-5),
        st.floats(min_value=1.0, max_value=1e4),
    )
    def test_shorter_period_means_more_iterations_and_lower_reliability(
        self, failure, period
    ):
        shorter = reliability_over_time_unit(failure, 3.6e6, period)
        longer = reliability_over_time_unit(failure, 3.6e6, period * 2)
        assert shorter <= longer + 1e-12
