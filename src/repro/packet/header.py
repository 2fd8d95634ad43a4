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
5      1     head bits ``P`` (a remnant: the bits per coordinate it kept)
6      2     tail bits ``Q`` (the code's other bits; 16-bit for wide codes)
8      4     message id
12     2     epoch
14     2     chunk index (packet index within the message)
16     4     coordinate offset (index of first coordinate in the blob)
20     4     coordinate count ``n`` in this packet
24     8     rotation / dither seed
====== ===== =========================================================

These 32 bytes at the front of the payload are the only copy of the
header: a packet stores no parsed twin of them.  Switches, transports and
receivers read the fields they need straight from the bytes through the
precompiled views below; :class:`GradientHeader` is for building headers
and for cold readers.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, fields
from typing import Dict, Sequence, Tuple

import numpy as np

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
    "CODE_PLANES",
    "GradientHeader",
    "code_planes",
    "pack_runs",
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

#: Every field in wire order: ``(magic, version, flags, codec_id,
#: head_bits, tail_bits, message_id, epoch, chunk_index, coord_offset,
#: coord_count, seed)``.
HEADER_VIEW = struct.Struct(">HBBBBHIHHIIQ")
GRADIENT_HEADER_BYTES = HEADER_VIEW.size
assert GRADIENT_HEADER_BYTES == 32
#: Wire width in bits of each :class:`GradientHeader` field, in field order.
_FIELD_BITS = (8, 8, 16, 32, 16, 16, 32, 32, 64, 8, 8)
#: Byte offsets (layout table above) of the two fields that differ from one
#: data packet of a message to the next.
_CHUNK_INDEX_AT = 14
_COORD_OFFSET_AT = 16
#: Byte offsets of the fields a trimming switch rewrites: the flags (OR-ed
#: with TRIMMED) and, for a cut below a code's first plane boundary, the
#: head / tail bit widths, ``(head_bits, tail_bits)`` through ``SPLIT_VIEW``.
FLAGS_AT = 3
HEAD_BITS_AT = 5
SPLIT_VIEW = struct.Struct(">BH")

#: Bit width of each plane of a code, front of the packet first, by codec
#: id.  A packet can be cut at any plane boundary and what is left decodes
#: on its own.  A codec not listed has two planes, ``(head_bits,
#: tail_bits)``; codec 5 is Section 5.1's multi-level code
#: (:mod:`repro.core.multilevel`): sign, 7-bit magnitude, 24-bit residual.
CODE_PLANES: Dict[int, Tuple[int, ...]] = {5: (1, 7, 24)}

#: What a switch or a transport reads of one packet:
#: ``(magic, flags, codec_id, head_bits, tail_bits, message_id, coord_count)``.
PACKET_VIEW = struct.Struct(">HxBBBHI8xI8x")
#: What a receiver reads of every packet of a set: one numpy record a
#: header, every field in wire order under its :class:`GradientHeader`
#: name.  A message's headers joined are an array of these, so each field
#: is one column for the whole set.
SET_VIEW = np.dtype(
    [
        ("magic", ">u2"),
        ("version", "u1"),
        ("flags", "u1"),
        ("codec_id", "u1"),
        ("head_bits", "u1"),
        ("tail_bits", ">u2"),
        ("message_id", ">u4"),
        ("epoch", ">u2"),
        ("chunk_index", ">u2"),
        ("coord_offset", ">u4"),
        ("coord_count", ">u4"),
        ("seed", ">u8"),
    ]
)
assert PACKET_VIEW.size == SET_VIEW.itemsize == 32


@dataclass(frozen=True, slots=True)
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

    def check_fits(self) -> None:
        """Raise ``ValueError`` naming the first field too large for its wire width.

        :meth:`to_bytes` would fail with an untyped ``struct.error``; the
        packetizer asks this of a message's largest header before it packs
        anything (its column stores would wrap silently instead).
        """
        for name, limit in _FIELD_LIMITS:
            value = getattr(self, name)
            if not 0 <= value <= limit:
                raise ValueError(
                    f"gradient header field {name}={value} does not fit "
                    f"the wire format (limit {limit})"
                )

    def to_bytes(self) -> bytes:
        """Serialize (big-endian, 32 bytes)."""
        return HEADER_VIEW.pack(
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

        Uses the module's precompiled :class:`struct.Struct`; the
        packetizer writes the final chunk's header straight into the
        message's single wire buffer this way.
        """
        HEADER_VIEW.pack_into(
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
        # The wire carries version and flags first; the dataclass has them last.
        magic, version, flags, *rest = HEADER_VIEW.unpack_from(data)
        if magic != MAGIC:
            raise ValueError(f"bad magic 0x{magic:04x}; not a gradient packet")
        return cls(*rest, version, flags)


def pack_runs(headers: Sequence[GradientHeader], out: np.ndarray, coord_step: int) -> None:
    """Serialize a run of consecutive headers per header into the rows of ``out``.

    ``out`` is a writable ``(len(headers) * n, 32)`` uint8 view (any row
    stride), one run of ``n`` rows per header, in order; row ``i`` of a
    run receives its header with ``chunk_index + i`` and ``coord_offset +
    i * coord_step``.  The headers share ``chunk_index`` and
    ``coord_offset`` (the packetizer's messages of one geometry), so this
    is one template store and two big-endian column stores for all of
    them instead of a ``pack_into`` call a row.  The caller has asked
    :meth:`GradientHeader.check_fits` of the last header of each run.
    """
    first = headers[0]
    n = len(out) // len(headers)
    chunks = np.arange(first.chunk_index, first.chunk_index + n, dtype=">u2")
    offsets = np.arange(
        first.coord_offset, first.coord_offset + n * coord_step, coord_step, dtype=">u4"
    )
    runs = out.reshape(len(headers), n, GRADIENT_HEADER_BYTES)
    templates = np.frombuffer(b"".join([header.to_bytes() for header in headers]), dtype=np.uint8)
    runs[:] = templates.reshape(len(headers), 1, GRADIENT_HEADER_BYTES)
    runs[:, :, _CHUNK_INDEX_AT : _CHUNK_INDEX_AT + 2] = chunks.view(np.uint8).reshape(n, 2)
    runs[:, :, _COORD_OFFSET_AT : _COORD_OFFSET_AT + 4] = offsets.view(np.uint8).reshape(n, 4)


#: ``(field name, largest value its wire width holds)``, in field order.
_FIELD_LIMITS = tuple(
    (spec.name, (1 << bits) - 1) for spec, bits in zip(fields(GradientHeader), _FIELD_BITS)
)


def code_planes(codec_id: int, head_bits: int, tail_bits: int) -> Tuple[int, ...]:
    """The plane widths of ``codec_id``'s code (:data:`CODE_PLANES`)."""
    return CODE_PLANES.get(codec_id) or (head_bits, tail_bits)
