"""The production backend of each kernel family.

Two kernel families exist, each with one production backend:

* **SFP kernels** (:class:`~repro.kernels.base.SFPKernel`) — the Appendix A
  numeric primitives, served by :class:`~repro.kernels.array_backend.ArrayKernel`;
* **Scheduler kernels** (:class:`~repro.kernels.sched_base.SchedulerKernel`)
  — the root-schedule construction of Section 6.4, served by
  :class:`~repro.kernels.sched_flat.FlatSchedulerKernel`.

:data:`SFP_KERNELS` and :data:`SCHED_KERNELS` hold those instances, and no
entry point takes a backend as an argument.  ``ListScheduler`` and the
:mod:`repro.core.sfp` functions read :meth:`~_Production.active` on every
call; an ``EvaluationEngine`` reads it once, when it is built, and
``SFPAnalysis`` and ``ReExecutionOpt`` run on their engine's kernel.  A
whole-stack test swaps a family's backend by replacing the holder's
``kernel`` attribute
(``monkeypatch.setattr(SFP_KERNELS, "kernel", ReferenceKernel())``, which
``tests/conftest.py::production_kernels`` wraps).

The ``reference`` backends are the executable specifications the production
backends are tested against; they are not reachable from any option.
"""

from __future__ import annotations

from typing import Generic, TypeVar

from repro.kernels.base import SFPKernel
from repro.kernels.sched_base import SchedulerKernel

KernelT = TypeVar("KernelT")


class _Production(Generic[KernelT]):
    """The one production backend instance of a kernel family."""

    kernel: KernelT

    def active(self) -> KernelT:
        """The backend the whole stack runs on."""
        return self.kernel


#: The two families.  Their instances are bound below, after the backend
#: imports: the scheduler backends pull in ``repro.scheduling``, whose list
#: scheduler imports these holders while this module is still initializing.
SFP_KERNELS: _Production[SFPKernel] = _Production()
SCHED_KERNELS: _Production[SchedulerKernel] = _Production()

from repro.kernels.array_backend import ArrayKernel  # noqa: E402
from repro.kernels.sched_flat import FlatSchedulerKernel  # noqa: E402

SFP_KERNELS.kernel = ArrayKernel()
SCHED_KERNELS.kernel = FlatSchedulerKernel()
