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
from dataclasses import dataclass, fields

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
#: Wire width in bits of each :class:`GradientHeader` field, in field order.
_FIELD_BITS = (8, 8, 16, 32, 16, 16, 32, 32, 64, 8, 8)
#: Byte offsets (layout table above) of the two fields that differ from one
#: data packet of a message to the next.
_CHUNK_INDEX_AT = 14
_COORD_OFFSET_AT = 16


@dataclass(frozen=True, slots=True, init=False)
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

    def __init__(
        self,
        codec_id: int,
        head_bits: int,
        tail_bits: int,
        message_id: int,
        epoch: int,
        chunk_index: int,
        coord_offset: int,
        coord_count: int,
        seed: int,
        version: int = 1,
        flags: int = 0,
    ) -> None:
        # One header per packet made and per packet trimmed.  The __init__
        # that dataclass generates for a frozen class stores each field
        # with object.__setattr__(self, "name", value); the slot
        # descriptors build the same immutable object in half the time.
        store = _STORE
        store[0](self, codec_id)
        store[1](self, head_bits)
        store[2](self, tail_bits)
        store[3](self, message_id)
        store[4](self, epoch)
        store[5](self, chunk_index)
        store[6](self, coord_offset)
        store[7](self, coord_count)
        store[8](self, seed)
        store[9](self, version)
        store[10](self, flags)

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
            self.codec_id,
            self.head_bits,
            self.tail_bits,
            self.message_id,
            self.epoch,
            self.chunk_index,
            self.coord_offset,
            self.coord_count,
            self.seed,
            self.version,
            self.flags | flags,
        )

    def check_fits(self) -> None:
        """Raise ``ValueError`` naming the first field too large for its wire width.

        :meth:`to_bytes` would fail with an untyped ``struct.error``; the
        packetizer asks this of a message's largest header before it packs
        anything (its column stores would wrap silently instead).
        """
        for spec, bits in zip(fields(self), _FIELD_BITS):
            value = getattr(self, spec.name)
            limit = (1 << bits) - 1
            if not 0 <= value <= limit:
                raise ValueError(
                    f"gradient header field {spec.name}={value} does not fit "
                    f"the wire format (limit {limit})"
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

    def pack_run(self, out: np.ndarray, coord_step: int) -> None:
        """Serialize a run of consecutive headers into the rows of ``out``.

        ``out`` is a writable ``(n, 32)`` uint8 view (any row stride); row
        ``i`` receives this header with ``chunk_index + i`` and
        ``coord_offset + i * coord_step``: one template store and two
        big-endian column stores instead of ``n`` ``pack_into`` calls.  The
        caller has asked :meth:`check_fits` of the last header of the run.
        """
        n = len(out)
        chunks = np.arange(self.chunk_index, self.chunk_index + n, dtype=">u2")
        offsets = np.arange(
            self.coord_offset, self.coord_offset + n * coord_step, coord_step, dtype=">u4"
        )
        out[:] = np.frombuffer(self.to_bytes(), dtype=np.uint8)
        out[:, _CHUNK_INDEX_AT : _CHUNK_INDEX_AT + 2] = chunks.view(np.uint8).reshape(n, 2)
        out[:, _COORD_OFFSET_AT : _COORD_OFFSET_AT + 4] = offsets.view(np.uint8).reshape(n, 4)

    @classmethod
    def from_bytes(cls, data: "bytes | bytearray | memoryview") -> "GradientHeader":
        """Parse a header; raises ``ValueError`` on bad magic or short input."""
        if len(data) < GRADIENT_HEADER_BYTES:
            raise ValueError(
                f"gradient header needs {GRADIENT_HEADER_BYTES} bytes, got {len(data)}"
            )
        # The wire carries version and flags first; the dataclass has them last.
        magic, version, flags, *rest = _STRUCT.unpack_from(data)
        if magic != MAGIC:
            raise ValueError(f"bad magic 0x{magic:04x}; not a gradient packet")
        return cls(*rest, version, flags)


#: ``__set__`` of each field's slot, in field order (what ``__init__`` stores through).
_STORE = tuple(getattr(GradientHeader, f.name).__set__ for f in fields(GradientHeader))
