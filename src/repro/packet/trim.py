"""Trim policies: when and how far a switch cuts a packet.

The paper's switches trim at a fixed byte threshold (87 bytes in the
Section 2 example: 42 B wire header + 32 B gradient header + 13 B of
packed 1-bit heads would not fit — the worked example uses a minimal
application header; our self-describing header is 32 B, so the default
threshold adapts to ``trimmable_bytes``).  Multi-level trimming
(Section 5.1) lets the switch choose among several trim depths according
to how congested the queue is.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, replace
from typing import Optional

from .bitpack import packed_size
from .header import (
    FLAG_TRIMMED,
    FLAGS_AT,
    GRADIENT_HEADER_BYTES,
    HEAD_BITS_AT,
    MAGIC,
    PACKET_VIEW,
    TAIL_BITS_AT,
)
from .packet import Packet

__all__ = ["TrimDecision", "TrimPolicy", "SingleLevelTrim", "MultiLevelTrim", "NeverTrim"]


@dataclass(frozen=True)
class TrimDecision:
    """What the switch decided to do with an overflowing packet."""

    action: str  # "trim" | "drop"
    level: int = 0  # which trim level was applied (multi-level trimming)


class TrimPolicy:
    """Decides the fate of a packet that does not fit in the buffer."""

    def decide(self, packet: Packet, queue_fill: float) -> TrimDecision:
        """Choose an action for ``packet`` given queue fill in [0, 1]."""
        raise NotImplementedError

    def apply(self, packet: Packet, decision: TrimDecision) -> Optional[Packet]:
        """Produce the packet to enqueue instead, or None to drop."""
        if decision.action == "drop":
            return None
        return packet.trim()


class NeverTrim(TrimPolicy):
    """Drop-tail baseline: congested packets are simply dropped."""

    def decide(self, packet: Packet, queue_fill: float) -> TrimDecision:
        return TrimDecision(action="drop")


class SingleLevelTrim(TrimPolicy):
    """NDP-style: trim every trimmable packet to its head-only size."""

    def decide(self, packet: Packet, queue_fill: float) -> TrimDecision:
        if packet.trimmable_bytes() is None:
            return TrimDecision(action="drop")
        return TrimDecision(action="trim")


class MultiLevelTrim(TrimPolicy):
    """Section 5.1 multi-level trimming.

    The packet carries a tiered encoding (see
    :mod:`repro.core.multilevel`) whose prefix of ``level_bits[i]`` bits
    per coordinate is decodable on its own.  The switch picks a deeper
    trim level the fuller its queue is: with levels ``[8, 1]`` and
    thresholds ``[0.7, 0.9]``, a queue under 70 % full does not trim,
    between 70 % and 90 % it keeps 8 bits per coordinate (~25 % size) and
    beyond 90 % it keeps only the sign bit (~3 % size).
    """

    def __init__(
        self,
        level_bits: list[int],
        thresholds: list[float],
        plane_bits: tuple[int, ...] = (1, 7, 24),
    ) -> None:
        if len(level_bits) != len(thresholds):
            raise ValueError("level_bits and thresholds must have the same length")
        if sorted(thresholds) != list(thresholds):
            raise ValueError("thresholds must be non-decreasing")
        if sorted(level_bits, reverse=True) != list(level_bits):
            raise ValueError("level_bits must be non-increasing (deeper trim = fewer bits)")
        self.level_bits = list(level_bits)
        self.thresholds = list(thresholds)
        self.plane_bits = tuple(plane_bits)

    def decide(self, packet: Packet, queue_fill: float) -> TrimDecision:
        if packet.trimmable_bytes() is None:
            return TrimDecision(action="drop")
        level = -1
        for i, threshold in enumerate(self.thresholds):
            if queue_fill >= threshold:
                level = i
        if level < 0:
            # Overflow while under every threshold (e.g. a single huge
            # packet): fall back to the shallowest trim level.
            level = 0
        return TrimDecision(action="trim", level=level)

    def apply(self, packet: Packet, decision: TrimDecision) -> Optional[Packet]:
        if decision.action == "drop":
            return None
        keep_bits = self.level_bits[decision.level]
        return trim_to_bits(packet, keep_bits, self.plane_bits)


def trim_to_bits(
    packet: Packet, keep_bits: int, plane_bits: tuple[int, ...] = (1, 7, 24)
) -> Packet:
    """Trim ``packet`` so that ``keep_bits`` bits per coordinate survive.

    The payload after the gradient header is a sequence of *bit planes*
    (``plane_bits`` wide per coordinate), each independently packed to a
    byte boundary; ``keep_bits`` must land on a plane boundary — the trim
    keeps the packed bytes of exactly those prefix planes.  The remnant's
    header bytes get ``head_bits``/``tail_bits`` rewritten so the receiver
    knows the surviving depth, and the TRIMMED flag.
    """
    payload = packet.payload
    if len(payload) < GRADIENT_HEADER_BYTES:
        raise ValueError("not a gradient packet")
    magic, _, head_bits, tail_bits, _, coord_count = PACKET_VIEW.unpack_from(payload)
    if magic != MAGIC:
        raise ValueError("not a gradient packet")
    total_bits = head_bits + tail_bits
    if keep_bits > total_bits:
        raise ValueError(f"cannot keep {keep_bits} bits of a {total_bits}-bit code")
    keep_bytes = 0
    bits_so_far = 0
    for width in plane_bits:
        if bits_so_far == keep_bits:
            break
        keep_bytes += packed_size(coord_count, width)
        bits_so_far += width
    if bits_so_far != keep_bits:
        raise ValueError(
            f"keep_bits={keep_bits} is not a prefix-plane boundary of {plane_bits}"
        )
    keep_payload = GRADIENT_HEADER_BYTES + keep_bytes
    if keep_payload >= len(payload):
        return packet
    # The trimmed packet owns its remnant payload (see docs/performance.md).
    remnant = bytearray(payload[:keep_payload])
    remnant[FLAGS_AT] |= FLAG_TRIMMED
    remnant[HEAD_BITS_AT] = keep_bits
    remnant[TAIL_BITS_AT : TAIL_BITS_AT + 2] = (total_bits - keep_bits).to_bytes(2, "big")
    new_payload = bytes(remnant)
    # Re-seal over the remnant payload, as Packet.trim does — a stale
    # checksum would make receivers mistake the trim for corruption.
    return replace(
        packet,
        payload=new_payload,
        priority=max(packet.priority, 1),
        trimmed_from=packet.wire_size,
        checksum=zlib.crc32(new_payload) if packet.checksum is not None else None,
    )
