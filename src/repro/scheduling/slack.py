"""Recovery-slack computation for re-executions.

Section 6.4 of the paper: after each process ``Pi`` mapped on node ``Nj`` the
static schedule reserves a slack of ``(t_ijh + mu) * k_j`` so that up to
``k_j`` re-executions fit before the deadline.  Crucially the slack is
*shared* between the processes mapped on the same node: because at most
``k_j`` faults are tolerated on ``Nj`` per iteration, the slack reserved at
the end of the node's schedule only needs to cover the worst single victim,
i.e. ``k_j * (max_i t_ijh + mu)``, not the sum over all processes.

The module provides both the shared slack used by the paper and the naive
(per-process, non-shared) slack used as an ablation baseline in
``tests/integration/test_paper_shapes.py``.
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
    _check_budget(reexecutions)
    pairs = list(execution_times_and_overheads)
    if not pairs or reexecutions == 0:
        return 0.0
    worst_single_recovery = max(time + overhead for time, overhead in pairs)
    return reexecutions * worst_single_recovery


def naive_recovery_slack(
    execution_times_and_overheads: Sequence[Tuple[float, float]],
    reexecutions: int,
) -> float:
    """Non-shared recovery slack: every process reserves its own full slack.

    Used only as an ablation baseline; it reserves
    ``k_j * sum_i (t_ijh + mu_i)`` which is always at least as large as the
    shared slack and grows linearly with the number of processes on the node.
    """
    _check_budget(reexecutions)
    pairs = list(execution_times_and_overheads)
    if not pairs or reexecutions == 0:
        return 0.0
    return reexecutions * sum(time + overhead for time, overhead in pairs)


def _check_budget(reexecutions: int) -> None:
    if reexecutions < 0:
        raise ModelError(f"Re-execution budget must be >= 0, got {reexecutions}")
