"""Static cyclic scheduling with recovery slack for re-executions."""

from __future__ import annotations

from repro.scheduling.list_scheduler import ListScheduler
from repro.scheduling.schedule import Schedule, ScheduledMessage, ScheduledProcess
from repro.scheduling.slack import shared_recovery_slack

__all__ = [
    "ListScheduler",
    "Schedule",
    "ScheduledMessage",
    "ScheduledProcess",
    "shared_recovery_slack",
]
