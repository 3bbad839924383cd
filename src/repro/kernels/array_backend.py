"""Array-buffer SFP kernel — vectorized DP with integer-quanta rounding.

Bit-identical to :class:`~repro.kernels.reference.ReferenceKernel` (asserted
by the property suite) but restructured for speed on the DSE hot path:

**Preallocated work buffers.**  The homogeneous-polynomial DP table is an
``array('d')`` buffer owned by the kernel instance, grown geometrically and
reused across calls, so the hot loop performs no per-call allocation.  For
wide inputs (many processes on one node) the row recurrence switches to
``numpy``: rewriting the DP row-major turns the inner update into
``h_f(1..i) = h_f(1..i-1) + p_i * h_{f-1}(1..i)`` — a cumulative
sum of ``p * previous_row`` — and ``np.add.accumulate`` performs *exactly*
the same left-to-right float additions as the scalar loop, so the results
stay bit-identical (IEEE-754 operations are deterministic functions of their
operands and the operand sequence is unchanged, only its traversal order).

**Integer quanta rounding.**  ``floor_probability``/``ceil_probability``
round the *shortest-repr decimal value* of a float on the paper's ``10^-11``
grid via ``Decimal(repr(x)).quantize(...)``.  That grid spacing is many
orders of magnitude wider than one float ulp (``10^-11 >> 2^-52``), which
makes the repr semantics reproducible with exact integer arithmetic on
``float.as_integer_ratio()``:

* at most one grid point can round-trip to ``x`` (two would have to lie
  within one ulp of each other, impossible while ``10^-11 >> ulp(1)``);
* if a grid point ``n / 10^d`` round-trips to ``x`` then the shortest repr of
  ``x`` *is* that grid value (a shorter decimal would be a coarser grid point
  round-tripping to the same float — excluded by the previous point), so both
  floor and ceil return ``x`` itself;
* otherwise the repr value lies strictly between the neighbouring grid
  points of the exact binary value, so floor/ceil are the exact integer
  floor/ceiling ``(a * 10^d) // q`` of ``x = a/q`` — and Python's big-int
  division ``n / 10^d`` returns the correctly-rounded float, matching
  ``float(Decimal)``.

Keeping the per-fault survival sum as an exact integer count of quanta also
eliminates the per-term ``Decimal`` constructions of the reference chain (the
sum of grid values is exact in integers; the reference's ``Decimal`` context
precision of 28 digits never rounds it either).  The formula (5) union keeps
the reference's ``Decimal`` product — its 28-digit context rounding is part
of the contract — but memoizes the per-value ``1 - Decimal(repr(p))``
complements, which repeat heavily across the greedy re-execution loop.
"""

from __future__ import annotations

from array import array
from decimal import Decimal
from math import prod
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.exceptions import ModelError
from repro.kernels.base import SFPKernel
from repro.utils.rounding import DEFAULT_DECIMALS
from repro.utils.validation import require_in_unit_interval

#: Quanta per unit probability on the paper's rounding grid.
_SCALE = 10 ** DEFAULT_DECIMALS

#: Input width (process count) from which the numpy row recurrence beats the
#: scalar buffer loop; below it, ufunc dispatch overhead dominates.
NUMPY_MIN_WIDTH = 64

#: Complement-cache size bound; cleared wholesale when exceeded.
_COMPLEMENT_CACHE_LIMIT = 1 << 16


def _floor_quanta(value: float) -> Tuple[float, int]:
    """Floor ``value``'s shortest-repr decimal on the ``1/_SCALE`` grid.

    Returns ``(rounded float, exact integer numerator)`` so callers can keep
    accumulating in exact quanta.  ``value`` must already be clamped to
    ``[0, 1]``.
    """
    numerator, denominator = value.as_integer_ratio()
    floor_n, remainder = divmod(numerator * _SCALE, denominator)
    if remainder == 0:
        # The binary value sits exactly on the grid; repr is that grid value.
        return value, floor_n
    if floor_n / _SCALE == value:
        # The grid point below round-trips to the same float: the shortest
        # repr *is* the grid value, flooring is the identity.
        return value, floor_n
    above = floor_n + 1
    if above / _SCALE == value:
        return value, above
    return floor_n / _SCALE, floor_n


def _ceil_quanta(value: float) -> float:
    """Ceiling counterpart of :func:`_floor_quanta` (float result only)."""
    if value < 0.0:
        return 0.0
    if value > 1.0:
        return 1.0
    numerator, denominator = value.as_integer_ratio()
    floor_n, remainder = divmod(numerator * _SCALE, denominator)
    if remainder == 0:
        return value
    if floor_n / _SCALE == value:
        return value
    ceil_n = floor_n + 1
    if ceil_n / _SCALE == value:
        return value
    return ceil_n / _SCALE if ceil_n < _SCALE else 1.0


class ArrayKernel(SFPKernel):
    """Preallocated-buffer SFP kernel with integer-quanta rounding."""

    name = "array"

    def __init__(self) -> None:
        # Scalar DP table, reused across calls (see module docstring).
        self._table = array("d", [0.0] * 32)
        # numpy row-recurrence buffers for wide inputs.
        self._np_row = None
        self._np_work = None
        # float -> Decimal(1) - Decimal(repr(float)) memo for formula (5).
        self._complements: Dict[float, Decimal] = {}

    # ------------------------------------------------------------------
    def probability_no_fault(self, failure_probabilities: Sequence[float]) -> float:
        for probability in failure_probabilities:
            require_in_unit_interval(probability, "failure probability")
        raw = prod(1.0 - p for p in failure_probabilities)
        if raw < 0.0:
            raw = 0.0
        elif raw > 1.0:
            raw = 1.0
        return _floor_quanta(raw)[0]

    def probability_exceeds(
        self, failure_probabilities: Sequence[float], reexecutions: int
    ) -> float:
        if reexecutions < 0:
            raise ModelError(
                f"Number of re-executions must be >= 0, got {reexecutions}"
            )
        for probability in failure_probabilities:
            require_in_unit_interval(probability, "failure probability")
        raw = prod(1.0 - p for p in failure_probabilities)
        if raw < 0.0:
            raw = 0.0
        elif raw > 1.0:
            raw = 1.0
        no_fault, survival_quanta = _floor_quanta(raw)
        if reexecutions and failure_probabilities:
            for h_f in self._homogeneous_sums(failure_probabilities, reexecutions):
                term = no_fault * h_f
                if term < 0.0:
                    term = 0.0
                elif term > 1.0:
                    term = 1.0
                survival_quanta += _floor_quanta(term)[1]
        # (_SCALE - survival) / _SCALE is the exact decimal 1 - survival; the
        # big-int division returns the correctly-rounded float, matching the
        # reference's float(Decimal(1) - survival).
        return _ceil_quanta((_SCALE - survival_quanta) / _SCALE)

    def system_failure(self, per_node_exceedance: Sequence[float]) -> float:
        complements = self._complements
        if len(complements) > _COMPLEMENT_CACHE_LIMIT:
            complements.clear()
        survival = Decimal(1)
        for probability in per_node_exceedance:
            complement = complements.get(probability)
            if complement is None:
                require_in_unit_interval(probability, "node exceedance probability")
                complement = Decimal(1) - Decimal(repr(probability))
                complements[probability] = complement
            # The Decimal product (28-digit context rounding included) is part
            # of the reference semantics and is kept as-is.
            survival *= complement
        return _ceil_quanta(float(Decimal(1) - survival))

    # ------------------------------------------------------------------
    def _homogeneous_sums(
        self, probabilities: Sequence[float], reexecutions: int
    ) -> List[float]:
        """Yield ``h_1 .. h_k`` over the full variable set, bit-identically.

        Narrow inputs run the scalar single-pass DP in the reused
        ``array('d')`` buffer; wide inputs run the numpy row recurrence.
        """
        width = len(probabilities)
        if width >= NUMPY_MIN_WIDTH:
            return self._homogeneous_sums_numpy(probabilities, reexecutions)
        table = self._table
        needed = reexecutions + 1
        if len(table) < needed:
            table.extend([0.0] * (2 * needed - len(table)))
        table[0] = 1.0
        for f in range(1, needed):
            table[f] = 0.0
        for probability in probabilities:
            previous = 1.0
            for f in range(1, needed):
                current = table[f] + probability * previous
                table[f] = current
                previous = current
        return [table[f] for f in range(1, needed)]

    def _homogeneous_sums_numpy(
        self, probabilities: Sequence[float], reexecutions: int
    ) -> List[float]:
        """Row-major DP: one multiply + one sequential accumulate per ``h_f``."""
        width = len(probabilities)
        if self._np_row is None or len(self._np_row) < width:
            self._np_row = np.empty(max(width, 64), dtype=np.float64)
            self._np_work = np.empty_like(self._np_row)
        row = self._np_row[:width]
        work = self._np_work[:width]
        probs = np.asarray(probabilities, dtype=np.float64)
        row.fill(1.0)
        sums = []
        for _ in range(reexecutions):
            np.multiply(probs, row, out=work)
            # add.accumulate is a strict left-to-right recurrence
            # (r[i] = r[i-1] + a[i]) — the same additions, in the same order,
            # as the scalar DP performs for this row.
            np.add.accumulate(work, out=row)
            sums.append(float(row[-1]))
        return sums
