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
"""

from __future__ import annotations

import zlib
from dataclasses import replace
from typing import Optional, Tuple

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
        keep = packet.trimmable_bytes()
        if keep is None:
            return None
        return packet.trim_at(keep), 0


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

    def trim(self, packet: Packet, queue_fill: float) -> Optional[Tuple[Packet, int]]:
        if packet.trimmable_bytes() is None:
            return None
        # The deepest level whose threshold the fill reaches; an overflow
        # under every threshold (e.g. one huge packet) takes the shallowest.
        level = 0
        for i, threshold in enumerate(self.thresholds):
            if queue_fill >= threshold:
                level = i
        remnant = trim_to_bits(packet, self.level_bits[level], self.plane_bits)
        if remnant is packet:
            return None  # nothing to cut at this depth
        return remnant, level


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
