"""Static list scheduler with shared recovery slack.

This implements the ``Scheduling`` building block of the paper (Section 6.4),
adapted from the authors' earlier work [7, 15]:

1. Build the fault-free *root schedule*: processes are scheduled on their
   mapped nodes with list scheduling driven by partial-critical-path
   priorities; inter-node messages are scheduled on the shared bus in the
   order their consumers are placed.
2. Reserve recovery slack per node: after the last process of node ``Nj`` a
   slack of ``k_j * (max_i t_ijh + mu_i)`` is kept free so that up to ``k_j``
   re-executions (each preceded by the recovery overhead ``mu``) fit in the
   worst case.  The slack is shared between the processes of the node
   (see :mod:`repro.scheduling.slack`).
3. The worst-case schedule length is the latest node completion including its
   slack; it is the value compared against the deadline by every heuristic.
   :meth:`ListScheduler.worst_case_length` computes it without building the
   schedule, which is how the design-space exploration scores its points.

The scheduler is deterministic: ties in priority are broken by process name so
that repeated runs over the same inputs produce identical schedules (important
both for reproducibility of the experiments and for the tabu-search mapping
heuristic, which compares schedule lengths across small perturbations).

The root-schedule construction itself (priorities, layer placement, bus
gap search, recovery slack) runs in a *scheduler kernel backend*
(:mod:`repro.kernels.sched_base`): every call runs on the production ``flat``
backend (``SCHED_KERNELS.active()``), which compiles the application into
integer-indexed tables and runs the only production gap search; the
``reference`` backend — the per-object loop this class historically
inlined — is its test oracle.  The backends are bit-identical, so the
backend is never part of an evaluation-engine cache key.  The paper's
platform has one shared bus arbitrated first-come-first-served: a message
starts once its data is ready and the bus is free, and every message's
worst-case transmission time is a given input.
"""

from __future__ import annotations

from numbers import Integral
from typing import Dict, Mapping, Optional

from repro.core.application import Application
from repro.core.architecture import Architecture
from repro.core.exceptions import SchedulingError
from repro.core.mapping_model import ProcessMapping
from repro.core.profile import ExecutionProfile
from repro.kernels.registry import SCHED_KERNELS
from repro.kernels.sched_base import SchedulingProblem
from repro.scheduling.schedule import Schedule


class ListScheduler:
    """List scheduler producing root schedules with recovery slack.

    The recovery slack of a node is always shared: it covers the worst
    single victim ``k_j`` times (Section 6.4).  The scheduler holds no
    state: every call validates its inputs and runs on the production
    scheduler kernel, whose compiled tables are cached per (application,
    profile).
    """

    # ------------------------------------------------------------------
    def schedule(
        self,
        application: Application,
        architecture: Architecture,
        mapping: ProcessMapping,
        profile: ExecutionProfile,
        reexecutions: Optional[Mapping[str, int]] = None,
    ) -> Schedule:
        """Build the static schedule for one application iteration.

        Parameters
        ----------
        reexecutions:
            Re-execution budget ``k_j`` per node name; omitted nodes get 0.
        """
        return SCHED_KERNELS.active().build_schedule(
            self._problem(application, architecture, mapping, profile, reexecutions)
        )

    def worst_case_length(
        self,
        application: Application,
        architecture: Architecture,
        mapping: ProcessMapping,
        profile: ExecutionProfile,
        reexecutions: Optional[Mapping[str, int]] = None,
    ) -> float:
        """The ``length`` of :meth:`schedule`'s result, bit for bit.

        Validates exactly like :meth:`schedule`.  The production kernel
        computes the length without building the schedule; the design-space
        exploration scores every design point by it and builds a schedule
        only where one is read.
        """
        return SCHED_KERNELS.active().worst_case_length(
            self._problem(application, architecture, mapping, profile, reexecutions)
        )

    def _problem(
        self,
        application: Application,
        architecture: Architecture,
        mapping: ProcessMapping,
        profile: ExecutionProfile,
        reexecutions: Optional[Mapping[str, int]],
    ) -> SchedulingProblem:
        """Bind and validate the inputs; normalize the budgets into one problem.

        Binding freezes the application and profile (a flag check once
        frozen): the kernel's compiled tables key on their identity.
        """
        application.freeze()
        profile.freeze()
        mapping.validate(application, architecture, profile)
        budgets: Dict[str, int] = {node.name: 0 for node in architecture}
        if reexecutions:
            for name, value in reexecutions.items():
                if name not in budgets:
                    raise SchedulingError(
                        f"Re-execution budget given for unknown node {name}"
                    )
                # A bool is an Integral but not a count, and a float would
                # be truncated.
                if isinstance(value, bool) or not isinstance(value, Integral):
                    raise SchedulingError(
                        f"Re-execution budget of node {name} must be an "
                        f"integer, got {value!r}"
                    )
                if value < 0:
                    raise SchedulingError(
                        f"Re-execution budget of node {name} must be >= 0, got {value}"
                    )
                budgets[name] = int(value)

        return SchedulingProblem(
            application=application,
            architecture=architecture,
            mapping=mapping,
            profile=profile,
            budgets=budgets,
        )
