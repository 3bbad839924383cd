"""Kernel backend interface for root-schedule construction.

A *scheduler kernel* implements the inner loop of the list scheduler
(Section 6.4): partial-critical-path priorities, layer-by-layer process
placement, the bus gap search and the per-node recovery-slack computation.
:class:`~repro.scheduling.list_scheduler.ListScheduler` stays the public
entry point — it validates inputs, normalizes re-execution budgets and
memoizes the application's static structure — and hands the resulting
:class:`SchedulingProblem` to its backend.

A backend has two entry points over one :class:`SchedulingProblem`:

* :meth:`SchedulerKernel.build_schedule` returns the full root schedule,
  which records every granted bus window;
* :meth:`SchedulerKernel.worst_case_length` returns only the worst-case
  length ``SL`` — the one number the design-space exploration scores a
  design point by.  A backend may compute it without building a
  ``Schedule``; the default builds the schedule.

The bus is the paper's single shared medium, arbitrated
first-come-first-served; it has no configuration, so a backend keeps the
granted windows in its own placement state and the problem carries no bus.

The backend contract mirrors the SFP kernels (:mod:`repro.kernels.base`):
**bit identity**.  Every scheduler kernel must return, for every
input, a :class:`~repro.scheduling.schedule.Schedule` that is value-equal
(``Schedule.__eq__``) to the one the ``reference`` backend produces — every
process window, message window, recovery-slack reservation and budget, down
to the last float bit — and a ``worst_case_length`` equal (``==``) to that
schedule's ``length``.  All schedule arithmetic is max/+ chains over the same
input floats, so a backend is free to reorganize *how* the chains are
evaluated (integer-indexed tables, flat window arrays) but never *what*
comes out.  Because of this, the backend is deliberately **not** part of any
evaluation-engine cache key: cached design points stay valid whichever
backend computed them.

Kernels may keep a compiled representation of the application between calls
and are therefore **not** thread-safe; the process-parallel sweep gives each
worker its own instance (module state is per process).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.application import Application, Message
    from repro.core.architecture import Architecture
    from repro.core.mapping_model import ProcessMapping
    from repro.core.profile import ExecutionProfile
    from repro.scheduling.schedule import Schedule


@dataclass(frozen=True)
class ScheduleStructure:
    """Static scheduling structure of one application, memoized upstream.

    ``layers`` concatenates the topological generations of every task graph
    (each layer is exactly one ready set of the original ready-list loop);
    ``incoming`` maps each process to its incoming messages.  ``token`` is the
    application's structural token (see ``Application.structure_token``): a
    new token means a new structure object, which is what kernel-side
    compilation caches key their identity checks on.
    """

    token: Tuple[object, ...]
    layers: List[List[str]]
    incoming: Dict[str, List["Message"]]


@dataclass(frozen=True)
class SchedulingProblem:
    """Everything one root-schedule construction depends on.

    ``budgets`` is the normalized re-execution budget per node (every node of
    the architecture has an entry); ``structure`` is the memoized static
    structure of ``application``.  The mapping has already been validated
    against the architecture and profile.
    """

    application: "Application"
    architecture: "Architecture"
    mapping: "ProcessMapping"
    profile: "ExecutionProfile"
    budgets: Dict[str, int]
    structure: ScheduleStructure


class SchedulerKernel:
    """Abstract scheduler kernel backend; subclasses set :attr:`name`."""

    #: Backend identifier (test ids and ``repr``).
    name: str = ""

    def build_schedule(self, problem: SchedulingProblem) -> "Schedule":
        """Construct the root schedule (with recovery slack) for ``problem``."""
        raise NotImplementedError

    def worst_case_length(self, problem: SchedulingProblem) -> float:
        """The worst-case length of the schedule :meth:`build_schedule` builds."""
        return self.build_schedule(problem).length

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"
