"""Trim policies: what a switch does with a packet its queue cannot hold.

A switch whose data band overflows makes one call,
:meth:`TrimPolicy.trim`, and gets back either the remnant to enqueue in
the express band instead, with the trim level its INT record carries,
or None, meaning drop.  The paper's switches trim at a fixed byte
threshold (87 bytes in the Section 2 example: 42 B wire header + 32 B
gradient header + 13 B of packed 1-bit heads; our self-describing header
is 32 B, so :class:`SingleLevelTrim` keeps what ``trimmable_bytes``
says).  Multi-level trimming (Section 5.1, :class:`MultiLevelTrim`)
chooses among several trim depths according to how full the queue is.
Both cut through :meth:`Packet.cut`, one rule for every codec.
"""

from __future__ import annotations

from typing import Optional, Tuple

from .packet import Packet

__all__ = ["TrimPolicy", "SingleLevelTrim", "MultiLevelTrim", "NeverTrim"]


class TrimPolicy:
    """The fate of a packet that does not fit in a switch's data band."""

    def trim(self, packet: Packet, queue_fill: float) -> Optional[Tuple[Packet, int]]:
        """``(remnant, level)`` to enqueue instead of ``packet``, or None
        to drop it.

        ``queue_fill`` is the data band's fill in [0, 1] before the
        packet arrived.  The remnant is strictly smaller than ``packet``;
        ``level`` is the trim level the switch stamps into the packet's
        INT trim record (0 for single-level policies).
        """
        raise NotImplementedError


class NeverTrim(TrimPolicy):
    """Drop-tail baseline: congested packets are simply dropped."""

    def trim(self, packet: Packet, queue_fill: float) -> None:
        return None


class SingleLevelTrim(TrimPolicy):
    """NDP-style: trim every trimmable packet to its head-only size."""

    def trim(self, packet: Packet, queue_fill: float) -> Optional[Tuple[Packet, int]]:
        remnant = packet.cut()
        return None if remnant is None else (remnant, 0)


class MultiLevelTrim(TrimPolicy):
    """Section 5.1 multi-level trimming.

    The switch picks a deeper trim level the fuller its queue is: with
    levels ``[8, 1]`` and thresholds ``[0.7, 0.9]``, a queue under 70 %
    full keeps 8 bits per coordinate (~25 % of a multi-level packet,
    :mod:`repro.core.multilevel`) and beyond 90 % only the sign bit (~3 %
    size).  :meth:`Packet.cut` lands the level on a plane boundary of
    the packet's own code, so a two-plane packet keeps its heads at any
    level, and a remnant is cut again or dropped, never grown.
    """

    def __init__(self, level_bits: list[int], thresholds: list[float]) -> None:
        if len(level_bits) != len(thresholds):
            raise ValueError("level_bits and thresholds must have the same length")
        if sorted(thresholds) != list(thresholds):
            raise ValueError("thresholds must be non-decreasing")
        if sorted(level_bits, reverse=True) != list(level_bits):
            raise ValueError("level_bits must be non-increasing (deeper trim = fewer bits)")
        self.level_bits = list(level_bits)
        self.thresholds = list(thresholds)

    def trim(self, packet: Packet, queue_fill: float) -> Optional[Tuple[Packet, int]]:
        # The deepest level whose threshold the fill reaches; an overflow
        # under every threshold (e.g. one huge packet) takes the shallowest.
        level = 0
        for i, threshold in enumerate(self.thresholds):
            if queue_fill >= threshold:
                level = i
        remnant = packet.cut(self.level_bits[level])
        return None if remnant is None else (remnant, level)
