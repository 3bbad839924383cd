"""Recovery-slack computation for re-executions.

Section 6.4 of the paper: after each process ``Pi`` mapped on node ``Nj`` the
static schedule reserves a slack of ``(t_ijh + mu) * k_j`` so that up to
``k_j`` re-executions fit before the deadline.  Crucially the slack is
*shared* between the processes mapped on the same node: because at most
``k_j`` faults are tolerated on ``Nj`` per iteration, the slack reserved at
the end of the node's schedule only needs to cover the worst single victim,
i.e. ``k_j * (max_i t_ijh + mu)``, not the sum over all processes.

Shared slack is the only slack the scheduler reserves.  The naive
per-process bound ``k_j * sum_i (t_ijh + mu)`` is computed only by the
ablation in ``tests/integration/test_paper_shapes.py``, which derives it from
a shared-slack schedule (the root schedule does not depend on the slack).
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.core.exceptions import ModelError


def shared_recovery_slack(
    execution_times_and_overheads: Sequence[Tuple[float, float]],
    reexecutions: int,
) -> float:
    """Shared recovery slack of one node.

    Parameters
    ----------
    execution_times_and_overheads:
        One ``(t_ijh, mu_i)`` pair per process mapped on the node.
    reexecutions:
        Re-execution budget ``k_j`` of the node.

    Returns
    -------
    float
        ``k_j * max_i (t_ijh + mu_i)`` — zero when the node hosts no process
        or has no re-execution budget.
    """
    if reexecutions < 0:
        raise ModelError(f"Re-execution budget must be >= 0, got {reexecutions}")
    pairs = list(execution_times_and_overheads)
    if not pairs or reexecutions == 0:
        return 0.0
    worst_single_recovery = max(time + overhead for time, overhead in pairs)
    return reexecutions * worst_single_recovery
