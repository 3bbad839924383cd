"""Reference SFP kernel — the pure-Python single-pass DP from ``core/sfp.py``.

This is the implementation every other backend is measured against: the exact
float/``Decimal`` operation sequence that produced the paper reproduction's
published numbers (Appendix A.2 worked example, Fig. 6 acceptance
percentages).  It is deliberately boring — no buffers, no fast paths — so it
stays readable as the executable specification of the bit-identity contract.
"""

from __future__ import annotations

from decimal import Decimal
from math import prod
from typing import Sequence

from repro.core.exceptions import ModelError
from repro.kernels.base import SFPKernel
from repro.utils.rounding import ceil_probability, floor_probability
from repro.utils.validation import require_in_unit_interval


class ReferenceKernel(SFPKernel):
    """Pure-Python SFP primitives (the executable bit-identity specification)."""

    name = "reference"

    # ------------------------------------------------------------------
    def probability_no_fault(self, failure_probabilities: Sequence[float]) -> float:
        for probability in failure_probabilities:
            require_in_unit_interval(probability, "failure probability")
        raw = prod(1.0 - p for p in failure_probabilities)
        return floor_probability(raw)

    def probability_exceeds(
        self, failure_probabilities: Sequence[float], reexecutions: int
    ) -> float:
        if reexecutions < 0:
            raise ModelError(
                f"Number of re-executions must be >= 0, got {reexecutions}"
            )
        no_fault = self.probability_no_fault(failure_probabilities)
        survival = Decimal(repr(no_fault))
        if reexecutions and failure_probabilities:
            # table[f] accumulates the complete homogeneous symmetric
            # polynomial h_f over the variables processed so far; one table
            # serves every fault count (see core/sfp.py for the derivation).
            table = [0.0] * (reexecutions + 1)
            table[0] = 1.0
            for probability in failure_probabilities:
                for f in range(1, reexecutions + 1):
                    table[f] = table[f] + probability * table[f - 1]
            for faults in range(1, reexecutions + 1):
                survival += Decimal(repr(floor_probability(no_fault * table[faults])))
        return ceil_probability(float(Decimal(1) - survival))

    def system_failure(self, per_node_exceedance: Sequence[float]) -> float:
        for probability in per_node_exceedance:
            require_in_unit_interval(probability, "node exceedance probability")
        survival = Decimal(1)
        for probability in per_node_exceedance:
            survival *= Decimal(1) - Decimal(repr(probability))
        return ceil_probability(float(Decimal(1) - survival))
