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
(:mod:`repro.kernels.sched_base`): the production ``flat`` backend compiles
the application into integer-indexed tables and runs the only production
gap search, and the ``reference`` backend — the per-object loop this class
historically inlined — is its test oracle.  The backends are bit-identical,
so the backend is never part of an evaluation-engine cache key.  The paper's
platform has one shared bus arbitrated first-come-first-served: a message
starts once its data is ready and the bus is free, and every message's
worst-case transmission time is a given input.
"""

from __future__ import annotations

from numbers import Integral
from typing import Dict, List, Mapping, Optional

from repro.core.application import Application
from repro.core.architecture import Architecture
from repro.core.exceptions import SchedulingError
from repro.core.mapping_model import ProcessMapping
from repro.core.profile import ExecutionProfile
from repro.kernels.registry import SCHED_KERNELS
from repro.kernels.sched_base import (
    SchedulerKernel,
    ScheduleStructure,
    SchedulingProblem,
)
from repro.scheduling.schedule import Schedule


class ListScheduler:
    """List scheduler producing root schedules with recovery slack.

    The recovery slack of a node is always shared: it covers the worst
    single victim ``k_j`` times (Section 6.4).

    Parameters
    ----------
    kernel:
        Scheduler kernel backend running the root-schedule construction;
        ``None`` means the production backend.  Every backend is
        bit-identical.
    """

    def __init__(self, kernel: Optional[SchedulerKernel] = None) -> None:
        self.kernel = SCHED_KERNELS.or_active(kernel)
        # One-slot memo of the application's static structure (scheduling
        # layers and per-process incoming messages).  The DSE stack schedules
        # the same application thousands of times in a row.  The memo holds a
        # strong reference to the application (so a recycled object address
        # can never alias a dead one) and re-derives when the identity or the
        # structural token — process/message names, edge endpoints and
        # transmission times — changes, so in-place graph edits that preserve
        # the process/message counts still invalidate it.
        self._structure_app: Optional[Application] = None
        self._structure: Optional[ScheduleStructure] = None

    def _application_structure(self, application: Application) -> ScheduleStructure:
        """Static scheduling structure: (layers, incoming messages, token).

        ``layers`` concatenates the topological generations of every task
        graph: all processes of layer ``i`` have their predecessors in layers
        ``< i``, which is exactly the set the ready-list loop would discover
        batch by batch — but precomputed once instead of rescanned per call.
        """
        token = application.structure_token()
        structure = self._structure
        if (
            self._structure_app is not application
            or structure is None
            or structure.token != token
        ):
            graph_generations = [
                graph.topological_generations() for graph in application.graphs
            ]
            depth = max((len(g) for g in graph_generations), default=0)
            layers: List[List[str]] = []
            for level in range(depth):
                layer: List[str] = []
                for generations in graph_generations:
                    if level < len(generations):
                        layer.extend(generations[level])
                layers.append(layer)
            incoming: Dict[str, List] = {}
            for graph in application.graphs:
                for process in graph.process_names:
                    incoming[process] = graph.incoming_messages(process)
            structure = ScheduleStructure(token=token, layers=layers, incoming=incoming)
            self._structure = structure
            self._structure_app = application
        return structure

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
        return self.kernel.build_schedule(
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
        return self.kernel.worst_case_length(
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
        """Validate the inputs and normalize the budgets into one problem."""
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
            structure=self._application_structure(application),
        )
