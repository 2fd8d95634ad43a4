"""Packet headers for trimmable gradient traffic.

The paper's worked example (Section 2) accounts for a 42-byte standard
header — Ethernet (14 B) + IPv4 (20 B) + UDP (8 B) — followed by the
payload.  For trimmable gradients the payload itself begins with a small
*gradient header* that must survive trimming: it tells the receiver which
message/chunk this is, how many coordinates it carries, the head/tail bit
widths, the codec, and the rotation seed, so a trimmed packet remains
self-describing.

Byte layout of :class:`GradientHeader` (big-endian, 32 bytes):

====== ===== =========================================================
offset bytes field
====== ===== =========================================================
0      2     magic ``0x7A6D`` ("trim")
2      1     version
3      1     flags (bit 0: TRIMMED, bit 1: METADATA, bit 2: INT)
4      1     codec id (see :mod:`repro.core.codec`)
5      1     head bits ``P``
6      2     tail bits ``Q`` (16-bit to allow multi-level codes)
8      4     message id
12     2     epoch
14     2     chunk index (packet index within the message)
16     4     coordinate offset (index of first coordinate in the blob)
20     4     coordinate count ``n`` in this packet
24     8     rotation / dither seed
====== ===== =========================================================
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

__all__ = [
    "ETHERNET_HEADER_BYTES",
    "IPV4_HEADER_BYTES",
    "UDP_HEADER_BYTES",
    "WIRE_HEADER_BYTES",
    "GRADIENT_HEADER_BYTES",
    "MAGIC",
    "FLAG_TRIMMED",
    "FLAG_METADATA",
    "FLAG_INT",
    "GradientHeader",
]

ETHERNET_HEADER_BYTES = 14
IPV4_HEADER_BYTES = 20
UDP_HEADER_BYTES = 8
#: Standard Ethernet + IP + UDP overhead, 42 bytes as in the paper.
WIRE_HEADER_BYTES = ETHERNET_HEADER_BYTES + IPV4_HEADER_BYTES + UDP_HEADER_BYTES

MAGIC = 0x7A6D
FLAG_TRIMMED = 0x01
FLAG_METADATA = 0x02
#: The packet carries an in-band telemetry band (a versioned, fixed-size
#: extension riding *outside* the payload — see repro.obs.int_telemetry).
#: Like the gradient header itself, the band is protected metadata:
#: switches stamp it but never trim it.
FLAG_INT = 0x04

_STRUCT = struct.Struct(">HBBBBHIHHIIQ")
GRADIENT_HEADER_BYTES = _STRUCT.size
assert GRADIENT_HEADER_BYTES == 32


@dataclass(frozen=True)
class GradientHeader:
    """Self-describing header carried at the front of every gradient packet."""

    codec_id: int
    head_bits: int
    tail_bits: int
    message_id: int
    epoch: int
    chunk_index: int
    coord_offset: int
    coord_count: int
    seed: int
    version: int = 1
    flags: int = 0

    @property
    def trimmed(self) -> bool:
        """True when a switch trimmed this packet's tails away."""
        return bool(self.flags & FLAG_TRIMMED)

    @property
    def is_metadata(self) -> bool:
        """True for the small, reliable metadata packets (never trimmed)."""
        return bool(self.flags & FLAG_METADATA)

    @property
    def has_int(self) -> bool:
        """True when the packet was emitted with an INT telemetry band."""
        return bool(self.flags & FLAG_INT)

    def with_flags(self, flags: int) -> "GradientHeader":
        """Copy of this header with ``flags`` OR-ed in."""
        return GradientHeader(
            codec_id=self.codec_id,
            head_bits=self.head_bits,
            tail_bits=self.tail_bits,
            message_id=self.message_id,
            epoch=self.epoch,
            chunk_index=self.chunk_index,
            coord_offset=self.coord_offset,
            coord_count=self.coord_count,
            seed=self.seed,
            version=self.version,
            flags=self.flags | flags,
        )

    def to_bytes(self) -> bytes:
        """Serialize (big-endian, 32 bytes)."""
        return _STRUCT.pack(
            MAGIC,
            self.version,
            self.flags,
            self.codec_id,
            self.head_bits,
            self.tail_bits,
            self.message_id,
            self.epoch,
            self.chunk_index,
            self.coord_offset,
            self.coord_count,
            self.seed,
        )

    def pack_into(self, buffer: "bytearray | memoryview", offset: int = 0) -> None:
        """Serialize directly into ``buffer`` at ``offset`` (no allocation).

        Uses the module's precompiled :class:`struct.Struct`; the hot
        packetizer path writes every header straight into the message's
        single wire buffer instead of concatenating 32-byte strings.
        """
        _STRUCT.pack_into(
            buffer,
            offset,
            MAGIC,
            self.version,
            self.flags,
            self.codec_id,
            self.head_bits,
            self.tail_bits,
            self.message_id,
            self.epoch,
            self.chunk_index,
            self.coord_offset,
            self.coord_count,
            self.seed,
        )

    @classmethod
    def from_bytes(cls, data: "bytes | bytearray | memoryview") -> "GradientHeader":
        """Parse a header; raises ``ValueError`` on bad magic or short input."""
        if len(data) < GRADIENT_HEADER_BYTES:
            raise ValueError(
                f"gradient header needs {GRADIENT_HEADER_BYTES} bytes, got {len(data)}"
            )
        (
            magic,
            version,
            flags,
            codec_id,
            head_bits,
            tail_bits,
            message_id,
            epoch,
            chunk_index,
            coord_offset,
            coord_count,
            seed,
        ) = _STRUCT.unpack_from(data)
        if magic != MAGIC:
            raise ValueError(f"bad magic 0x{magic:04x}; not a gradient packet")
        return cls(
            codec_id=codec_id,
            head_bits=head_bits,
            tail_bits=tail_bits,
            message_id=message_id,
            epoch=epoch,
            chunk_index=chunk_index,
            coord_offset=coord_offset,
            coord_count=coord_count,
            seed=seed,
            version=version,
            flags=flags,
        )
