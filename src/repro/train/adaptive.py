"""Ahead-of-time Q adaptation + just-in-time trimming (Section 5.3).

The paper's Section 5.3 sketches the full control loop:

* a **coarse-grained congestion-control signal** lets the sender adjust
  the tail width ``Q`` ahead of time (send fewer bits when the path is
  known to be busy);
* the switch still applies **just-in-time trimming** when unpredictable
  congestion hits anyway;
* crucially, the sender should "always slightly under-compress and
  over-send so that the gradient traffic always saturates the link",
  letting the switch do the fine-grained cutting.

Implemented here over the Section 5.1 tiered (1/8/32-bit) codec, whose
plane boundaries give both the sender and the switch the same trim
depths:

* :class:`BudgetedLinkChannel` — a bottleneck with a per-message byte
  budget: packets beyond the budget are trimmed to the next shallower
  plane (the JIT reaction), packets that cannot shrink further are
  dropped.
* :class:`AdaptiveQController` — adjusts the sender's ahead-of-time
  depth from the observed JIT trim fraction, biased toward
  under-compression exactly as the paper prescribes.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..collectives.channel import GradientChannel
from ..core.multilevel import LEVEL_BITS, MultiLevelCodec
from ..core.packetizer import decode_packets, packetize

__all__ = ["BudgetedLinkChannel", "AdaptiveQController"]


class AdaptiveQController:
    """Pick the ahead-of-time send depth from JIT-trim feedback.

    Policy: if the link trimmed more than ``high_water`` of last
    message's packets, the coarse signal says "congested" — step down
    one depth.  Only after ``patience`` consecutive messages with trim
    fraction below ``low_water`` step back up.  The asymmetric
    thresholds implement the paper's "slightly under-compress and
    over-send" bias: a small, steady JIT trim fraction is the *desired*
    operating point, not an error.
    """

    def __init__(
        self,
        levels: tuple = LEVEL_BITS[::-1],  # (32, 8, 1)
        high_water: float = 0.5,
        low_water: float = 0.05,
        patience: int = 2,
    ) -> None:
        if not levels or sorted(levels, reverse=True) != list(levels):
            raise ValueError("levels must be non-increasing bit depths")
        self.levels = tuple(levels)
        self.high_water = high_water
        self.low_water = low_water
        self.patience = patience
        self._index = 0  # start at full depth: over-send first
        self._calm_streak = 0

    @property
    def send_bits(self) -> int:
        """Current ahead-of-time bits per coordinate."""
        return self.levels[self._index]

    def update(self, trim_fraction: float) -> int:
        """Fold in the last message's observed JIT trim fraction."""
        if trim_fraction > self.high_water:
            if self._index < len(self.levels) - 1:
                self._index += 1
            self._calm_streak = 0
        elif trim_fraction < self.low_water:
            self._calm_streak += 1
            if self._calm_streak >= self.patience and self._index > 0:
                self._index -= 1
                self._calm_streak = 0
        else:
            # In the target band: slight trimming, link saturated.
            self._calm_streak = 0
        return self.send_bits


class BudgetedLinkChannel(GradientChannel):
    """A byte-budgeted bottleneck over the tiered multi-level codec.

    Each message crosses a link that can carry ``capacity_bytes``.
    Packets are sent at the controller's ahead-of-time depth; once the
    running total exceeds the budget, every further packet is trimmed
    one plane shallower (JIT), and packets already at the deepest plane
    are dropped.  The controller (if any) sees the resulting JIT trim
    fraction after every message.
    """

    def __init__(
        self,
        codec: MultiLevelCodec,
        capacity_bytes: int,
        controller: Optional[AdaptiveQController] = None,
        static_send_bits: int = 32,
    ) -> None:
        super().__init__()
        if capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive")
        if static_send_bits not in LEVEL_BITS:
            raise ValueError(f"static_send_bits must be one of {LEVEL_BITS}")
        self.codec = codec
        self.capacity_bytes = capacity_bytes
        self.controller = controller
        self.static_send_bits = static_send_bits
        self.last_trim_fraction = 0.0
        self.last_send_bits = static_send_bits

    def _next_lower(self, bits: int) -> Optional[int]:
        lower = [b for b in LEVEL_BITS if b < bits]
        return max(lower) if lower else None

    def transfer(
        self, flat: np.ndarray, *, epoch: int = 0, message_id: int = 0, worker: int = 0
    ) -> np.ndarray:
        flat = np.asarray(flat, dtype=np.float64)
        send_bits = (
            self.controller.send_bits if self.controller else self.static_send_bits
        )
        self.last_send_bits = send_bits
        enc = self.codec.encode(flat, epoch=epoch, message_id=message_id)
        packets = packetize(enc, "tx", "rx")
        meta, data = packets[0], packets[1:]

        wire = [meta]
        used = meta.wire_size
        jit_trimmed = 0
        for pkt in data:
            shaped = pkt if send_bits == LEVEL_BITS[-1] else pkt.trim(send_bits)
            if used + shaped.wire_size <= self.capacity_bytes:
                wire.append(shaped)
                used += shaped.wire_size
                continue
            # JIT reaction: cascade down the plane boundaries until the
            # remnant fits; a packet that cannot fit even at the deepest
            # plane is dropped (buffer exhausted).
            deeper = self._next_lower(send_bits)
            while deeper is not None:
                remnant = pkt.trim(deeper)
                if used + remnant.wire_size <= self.capacity_bytes:
                    wire.append(remnant)
                    used += remnant.wire_size
                    jit_trimmed += 1
                    break
                deeper = self._next_lower(deeper)

        self.stats.count_wire(flat.size, len(data), wire)
        decoded = decode_packets(wire, self.codec)
        dropped = len(data) + 1 - len(wire)
        self.last_trim_fraction = (jit_trimmed + dropped) / max(1, len(data))
        if self.controller is not None:
            self.controller.update(self.last_trim_fraction)
        return decoded
