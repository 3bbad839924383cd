"""Kernel backend interface for the System Failure Probability analysis.

A *kernel* implements the three numeric primitives of Appendix A that sit on
the design-space-exploration hot path (see :mod:`repro.core.sfp` for the
formula numbering):

* :meth:`SFPKernel.probability_no_fault` — formula (1),
* :meth:`SFPKernel.probability_exceeds` — formula (4) via the single-pass
  complete-homogeneous-polynomial dynamic program,
* :meth:`SFPKernel.system_failure` — the formula (5) union.

The backend contract is **bit identity**: every kernel must return, for every
input, the exact same ``float`` as the ``reference`` backend (the pure-Python
implementation historically living in ``core/sfp.py``).  The
rounding direction (success probabilities down, failure probabilities up, on
the paper's decimal grid of :data:`~repro.utils.rounding.DEFAULT_DECIMALS`
digits) is part of the paper's pessimism
argument, so a backend is free to reorganize *how* it computes — preallocated
buffers, integer quanta arithmetic, a numpy row recurrence — but never *what*
comes out.  The property suite (``tests/property/test_kernel_equivalence.py``)
cross-checks the production backend against the reference on randomized
inputs, and the golden acceptance fixtures pin the end-to-end sweep output,
so a drifting backend cannot land silently.

Kernels may keep preallocated work buffers between calls and are therefore
**not** thread-safe; the process-parallel sweep gives each worker its own
instance (module state is per process).
"""

from __future__ import annotations

from typing import Sequence


class SFPKernel:
    """Abstract SFP kernel backend; subclasses set :attr:`name`."""

    #: Backend identifier (test ids and ``repr``).
    name: str = ""

    # ------------------------------------------------------------------
    # the three SFP primitives — see core/sfp.py for formula semantics
    # ------------------------------------------------------------------
    def probability_no_fault(self, failure_probabilities: Sequence[float]) -> float:
        """Formula (1): probability that none of the processes fails."""
        raise NotImplementedError

    def probability_exceeds(
        self, failure_probabilities: Sequence[float], reexecutions: int
    ) -> float:
        """Formula (4): probability that more than ``reexecutions`` faults occur."""
        raise NotImplementedError

    def system_failure(self, per_node_exceedance: Sequence[float]) -> float:
        """Formula (5): probability that at least one node exceeds its budget."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"
