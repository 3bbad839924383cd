"""Pluggable kernel backends for the DSE hot paths.

Two kernel families are made swappable behind bit-identity contracts:

* **SFP kernels** — the System Failure Probability primitives (formulae (1),
  (4) and (5) of the paper), the innermost numeric kernel of the design-space
  exploration.  See :mod:`repro.kernels.base` for the contract.
* **Scheduler kernels** — the root-schedule construction of Section 6.4
  (priorities, layer placement, bus reservation, recovery slack).  See
  :mod:`repro.kernels.sched_base` for the contract.

Selection goes through :mod:`repro.kernels.registry` (``--sfp-kernel`` /
``REPRO_SFP_KERNEL`` and ``--sched-kernel`` / ``REPRO_SCHED_KERNEL``, both
defaulting to ``auto``); see ``PERFORMANCE.md`` for measurements.
"""

from __future__ import annotations

from repro.kernels.array_backend import ArrayKernel
from repro.kernels.base import SFPKernel
from repro.kernels.reference import ReferenceKernel
from repro.kernels.registry import (
    AUTO,
    KERNEL_ENV_VAR,
    SCHED_KERNEL_ENV_VAR,
    active_kernel,
    active_sched_kernel,
    get_kernel,
    get_sched_kernel,
    kernel_names,
    register_kernel,
    register_sched_kernel,
    resolve_kernel,
    resolve_sched_kernel,
    sched_kernel_names,
    use_kernel,
)
from repro.kernels.sched_base import (
    SchedulerKernel,
    ScheduleStructure,
    SchedulingProblem,
)
from repro.kernels.sched_flat import FlatSchedulerKernel
from repro.kernels.sched_reference import ReferenceSchedulerKernel

__all__ = [
    "AUTO",
    "ArrayKernel",
    "FlatSchedulerKernel",
    "KERNEL_ENV_VAR",
    "ReferenceKernel",
    "ReferenceSchedulerKernel",
    "SCHED_KERNEL_ENV_VAR",
    "SFPKernel",
    "SchedulerKernel",
    "ScheduleStructure",
    "SchedulingProblem",
    "active_kernel",
    "active_sched_kernel",
    "get_kernel",
    "get_sched_kernel",
    "kernel_names",
    "register_kernel",
    "register_sched_kernel",
    "resolve_kernel",
    "resolve_sched_kernel",
    "sched_kernel_names",
    "use_kernel",
]
