"""Property-style tests for the single-pass ``probability_exceeds`` rewrite.

The single-pass implementation reads all of ``h_1 .. h_k`` off one DP table
instead of rebuilding ``probability_no_fault`` and the table for every fault
count.  Two references pin it down:

* the *exact* reference re-composes formula (4) the way the original
  implementation did — ``1 - Pr(0) - sum_f floor(Pr(0) * h_f)`` with a fresh
  :func:`complete_homogeneous_sum` per fault count — and must agree **bit for
  bit** (the truncated DP prefix performs the identical float operations);
* the *enumeration* reference sums the exponential
  :func:`enumerate_fault_scenarios` multiset products and must agree up to
  floating-point reassociation.
"""

from __future__ import annotations

import random
from decimal import Decimal

import pytest

from repro.core.sfp import (
    complete_homogeneous_sum,
    enumerate_fault_scenarios,
    probability_exceeds,
    probability_no_fault,
)
from repro.utils.rounding import ceil_probability, floor_probability


def reference_exceeds(probabilities, reexecutions):
    """Formula (4) composed exactly as the pre-rewrite implementation did."""
    survival = Decimal(repr(probability_no_fault(probabilities)))
    for faults in range(1, reexecutions + 1):
        no_fault = probability_no_fault(probabilities)
        exactly = floor_probability(no_fault * complete_homogeneous_sum(probabilities, faults))
        survival += Decimal(repr(exactly))
    return ceil_probability(float(Decimal(1) - survival))


def random_probability_vectors(count, max_len=6, seed=20090420):
    rng = random.Random(seed)
    for _ in range(count):
        length = rng.randint(0, max_len)
        scale = rng.choice([1e-1, 1e-3, 1e-6, 1e-9])
        yield [rng.random() * scale for _ in range(length)]


class TestBitIdenticalWithReference:
    def test_matches_reference_composition_exactly(self):
        for probabilities in random_probability_vectors(40):
            for reexecutions in range(0, 6):
                assert probability_exceeds(probabilities, reexecutions) == reference_exceeds(
                    probabilities, reexecutions
                ), f"mismatch for probs={probabilities} k={reexecutions}"

    def test_tuple_and_list_inputs_agree(self):
        probabilities = [1.2e-4, 3.4e-5, 5.6e-6]
        for reexecutions in range(4):
            assert probability_exceeds(
                tuple(probabilities), reexecutions
            ) == probability_exceeds(probabilities, reexecutions)

    def test_empty_probabilities(self):
        assert probability_exceeds([], 0) == 0.0
        assert probability_exceeds([], 3) == 0.0


class TestAgainstEnumeration:
    """The DP must match the exponential multiset enumeration of (2)/(3)."""

    @pytest.mark.parametrize("faults", [1, 2, 3, 4])
    def test_homogeneous_sum_matches_enumeration(self, faults):
        for probabilities in random_probability_vectors(20, max_len=5, seed=7):
            expected = sum(enumerate_fault_scenarios(probabilities, faults))
            assert complete_homogeneous_sum(probabilities, faults) == pytest.approx(
                expected, rel=1e-12, abs=1e-300
            )

    def test_exceedance_matches_enumeration_composition(self):
        # Large probabilities keep every term well above the rounding floor so
        # the enumeration reference is meaningful at full accuracy.
        rng = random.Random(99)
        for _ in range(20):
            probabilities = [rng.uniform(0.01, 0.3) for _ in range(rng.randint(1, 5))]
            for reexecutions in range(0, 4):
                no_fault = probability_no_fault(probabilities)
                survival = Decimal(repr(no_fault))
                for faults in range(1, reexecutions + 1):
                    h_f = sum(enumerate_fault_scenarios(probabilities, faults))
                    survival += Decimal(repr(floor_probability(no_fault * h_f)))
                expected = ceil_probability(float(Decimal(1) - survival))
                assert probability_exceeds(probabilities, reexecutions) == (
                    pytest.approx(expected, rel=1e-9, abs=1e-11)
                )
