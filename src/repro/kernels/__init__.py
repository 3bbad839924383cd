"""Kernel backends for the DSE hot paths.

Two kernel families sit behind bit-identity contracts:

* **SFP kernels** — the System Failure Probability primitives (formulae (1),
  (4) and (5) of the paper), the innermost numeric kernel of the design-space
  exploration, rounded on the paper's 1e-11 grid.  See
  :mod:`repro.kernels.base` for the contract.
* **Scheduler kernels** — the root-schedule construction of Section 6.4
  (priorities, layer placement, first-come-first-served bus gap search,
  recovery slack).  See :mod:`repro.kernels.sched_base` for the contract.

Each family has one production backend (``array`` and ``flat``), held by
:mod:`repro.kernels.registry`; the ``reference`` backend of each family is
the test oracle it must match bit for bit.  Production backends subclass
their family's abstract base, never the oracle.  See ``PERFORMANCE.md`` for
measurements.
"""

from __future__ import annotations

from repro.kernels.array_backend import ArrayKernel
from repro.kernels.base import SFPKernel
from repro.kernels.reference import ReferenceKernel
from repro.kernels.registry import SCHED_KERNELS, SFP_KERNELS
from repro.kernels.sched_base import SchedulerKernel, SchedulingProblem
from repro.kernels.sched_flat import FlatSchedulerKernel
from repro.kernels.sched_reference import ReferenceSchedulerKernel

__all__ = [
    "ArrayKernel",
    "FlatSchedulerKernel",
    "ReferenceKernel",
    "ReferenceSchedulerKernel",
    "SCHED_KERNELS",
    "SFPKernel",
    "SFP_KERNELS",
    "SchedulerKernel",
    "SchedulingProblem",
]
