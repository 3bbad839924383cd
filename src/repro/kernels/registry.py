"""The production backend of each kernel family.

Two kernel families exist, each with one production backend:

* **SFP kernels** (:class:`~repro.kernels.base.SFPKernel`) — the Appendix A
  numeric primitives, served by :class:`~repro.kernels.array_backend.ArrayKernel`;
* **Scheduler kernels** (:class:`~repro.kernels.sched_base.SchedulerKernel`)
  — the root-schedule construction of Section 6.4, served by
  :class:`~repro.kernels.sched_flat.FlatSchedulerKernel`.

:data:`SFP_KERNELS` and :data:`SCHED_KERNELS` hold those instances.  Every
entry point with a ``kernel=None`` default (the :mod:`repro.core.sfp`
functions, ``EvaluationEngine`` and ``ListScheduler``) reads :meth:`active`
when it is built — ``SFPAnalysis`` and ``ReExecutionOpt`` run on their
engine's kernel — so a whole-stack
test swaps a family's backend by replacing the holder's ``kernel``
attribute (``monkeypatch.setattr(SFP_KERNELS, "kernel", ReferenceKernel())``).
An explicit ``kernel=`` takes an instance of the family's base class.

The ``reference`` backends are the executable specifications the production
backends are tested against; they are not reachable from any option.
"""

from __future__ import annotations

from typing import Generic, Optional, Type, TypeVar

from repro.kernels.base import SFPKernel
from repro.kernels.sched_base import SchedulerKernel

KernelT = TypeVar("KernelT")


class _Production(Generic[KernelT]):
    """The one production backend instance of a kernel family."""

    kernel: KernelT

    def __init__(self, base_class: Type[KernelT]) -> None:
        self.base_class = base_class

    def active(self) -> KernelT:
        """The backend every ``kernel=None`` default runs on."""
        return self.kernel

    def or_active(self, kernel: Optional[KernelT]) -> KernelT:
        """``kernel`` when given (a backend instance), else :meth:`active`."""
        if kernel is None:
            return self.active()
        if not isinstance(kernel, self.base_class):
            raise TypeError(
                f"kernel= takes a {self.base_class.__name__} instance, "
                f"got {kernel!r}"
            )
        return kernel


#: The two families.  Their instances are bound below, after the backend
#: imports: the scheduler backends pull in ``repro.scheduling``, whose list
#: scheduler imports these holders while this module is still initializing.
SFP_KERNELS: _Production[SFPKernel] = _Production(SFPKernel)
SCHED_KERNELS: _Production[SchedulerKernel] = _Production(SchedulerKernel)

from repro.kernels.array_backend import ArrayKernel  # noqa: E402
from repro.kernels.sched_flat import FlatSchedulerKernel  # noqa: E402

SFP_KERNELS.kernel = ArrayKernel()
SCHED_KERNELS.kernel = FlatSchedulerKernel()
