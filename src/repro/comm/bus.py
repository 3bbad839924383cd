"""Shared-bus communication models.

The paper assumes the computation nodes are connected by a single bus running
a fault-tolerant, time-triggered protocol (TTP [10]); the worst-case
transmission time of every message is a given input and communication faults
are outside the scope of the optimization.

Two concrete bus models are provided:

* :class:`SimpleBus` — messages are serialized first-come-first-served on a
  single shared medium.  A message may start as soon as its data is produced
  and the bus is free.  This is the default model used by the experiments; it
  captures exactly what the paper needs (a single contention domain with given
  worst-case transmission times).
* :class:`TDMABus` — a static TDMA round, as in TTP: each node owns a slot of
  fixed length per round and a message can only be transmitted during a slot
  owned by its sender.  The bus-protocol and kernel-equivalence tests use
  it to show the API supports a realistic time-triggered bus.

Both models are plain configuration.  The scheduler kernel runs the gap
search over its own placement state, and the resulting
:class:`~repro.scheduling.schedule.Schedule` records every message window.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.core.exceptions import ModelError
from repro.utils.validation import require_positive


class Bus:
    """Configuration of a shared communication medium."""

    def signature(self) -> Tuple:
        """Configuration fingerprint for evaluation-engine cache keys.

        Two buses with equal signatures must grant identical windows for
        identical schedules.  Subclasses with configuration (slot orders,
        slot lengths, ...) must extend this.
        """
        return (type(self).__name__,)


class SimpleBus(Bus):
    """A single shared medium with first-come-first-served arbitration."""


class TDMABus(Bus):
    """A static TDMA round, one slot per node, as used by TTP.

    Parameters
    ----------
    slot_order:
        Node names in the order their slots appear in the round.
    slot_length:
        Length of each slot in milliseconds; a message must fit entirely
        inside one slot of its sender.
    """

    def __init__(self, slot_order: Sequence[str], slot_length: float) -> None:
        if not slot_order:
            raise ModelError("TDMA slot order must contain at least one node")
        if len(set(slot_order)) != len(slot_order):
            raise ModelError(f"Duplicate nodes in TDMA slot order: {list(slot_order)}")
        self.slot_order = list(slot_order)
        self.slot_length = require_positive(slot_length, "slot_length")

    def signature(self) -> Tuple:
        return (type(self).__name__, tuple(self.slot_order), self.slot_length)

    @property
    def round_length(self) -> float:
        """Length of one TDMA round."""
        return self.slot_length * len(self.slot_order)
