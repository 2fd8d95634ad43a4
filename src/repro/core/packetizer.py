"""Gradient blob ⇄ trimmable packets.

``packetize`` lays an :class:`~repro.core.codec.EncodedGradient` out on
the wire exactly as Figure 2(b) prescribes: every packet carries its
32-byte self-describing gradient header, then the packed ``P``-bit heads
of its ``n`` coordinates, then their ``Q``-bit tails.  A switch that trims
the packet after the heads leaves a decodable prefix.

``depacketize`` reassembles whatever arrived — full packets, trimmed
packets, or holes where packets were dropped — into per-coordinate head /
tail arrays plus masks, ready for the codec's decoder.

Both directions run on the training hot path (once per gradient per
step), so they are whole-message vectorized (see docs/performance.md):

* ``packetize`` lays all payloads (headers included, via the precompiled
  struct template) out in one contiguous message buffer, has
  :func:`~repro.packet.bitpack.pack_segments` pack the head and the tail
  plane straight into their columns of that buffer's rows, and hands
  each packet a read-only zero-copy ``memoryview`` slice of it.
* ``depacketize`` parses each gradient header exactly once, groups the
  arrived packets by geometry, and inverts every group's packed planes
  with batched :func:`~repro.packet.bitpack.unpack_batch` calls, a row
  group of packets each, instead of two ``unpack_bits`` calls per
  packet, and stores a group that lies on its own ``coord_count`` grid
  as whole rows.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from ..obs.int_telemetry import INTExtension, int_capacity
from ..obs.trace import get_tracer
from ..packet.bitpack import ROW_GROUP, pack_segments, packed_size, unpack_batch
from ..packet.header import (
    FLAG_INT,
    FLAG_METADATA,
    FLAG_TRIMMED,
    GRADIENT_HEADER_BYTES,
    GradientHeader,
)
from ..packet.packet import DEFAULT_MTU_BYTES, Packet
from .codec import EncodedGradient, GradientCodec, codec_by_id
from .layout import coords_per_packet
from .metadata import GradientMetadata

__all__ = ["GradientMessage", "packetize", "depacketize", "decode_packets"]


@dataclass
class GradientMessage:
    """Receiver-side view of one collective message's packets.

    Attributes:
        heads: per-coordinate head codes (0 where the packet is missing).
        tails: per-coordinate tail codes (0 where trimmed or missing).
        trimmed: True for coordinates that arrived head-only.
        missing: True for coordinates whose packet never arrived.
        metadata: the reliable side-channel, if its packet arrived.
        codec_id / head_bits / tail_bits / length: message geometry.
    """

    heads: np.ndarray
    tails: np.ndarray
    trimmed: np.ndarray
    missing: np.ndarray
    metadata: Optional[GradientMetadata]
    codec_id: int
    head_bits: int
    tail_bits: int
    length: int

    @property
    def trim_fraction(self) -> float:
        """Fraction of coordinates that arrived head-only."""
        return float(self.trimmed.mean()) if self.length else 0.0

    def to_encoded(self) -> EncodedGradient:
        """Package as an :class:`EncodedGradient` for codec decoding."""
        if self.metadata is None:
            raise ValueError("metadata packet missing; cannot decode")
        return EncodedGradient(
            codec_id=self.codec_id,
            head_bits=self.head_bits,
            tail_bits=self.tail_bits,
            length=self.length,
            heads=self.heads,
            tails=self.tails,
            metadata=self.metadata,
        )


def packetize(
    enc: EncodedGradient,
    src: str = "",
    dst: str = "",
    mtu: int = DEFAULT_MTU_BYTES,
    flow_id: int = 0,
) -> list[Packet]:
    """Serialize an encoded gradient into wire packets.

    The first returned packet is the small reliable metadata packet
    (flagged so switches never trim it); the rest are trimmable data
    packets in coordinate order.
    """
    meta = enc.metadata
    n_per_packet = coords_per_packet(mtu, enc.head_bits, enc.tail_bits)
    num_chunks = -(-enc.length // n_per_packet)
    full_chunks = max(num_chunks - 1, 0)  # the final chunk may be short

    # When INT is enabled, every packet of this message carries a
    # fixed-size telemetry band.  The FLAG_INT bit is baked into the
    # headers *now*, before they are serialized into the shared read-only
    # buffer — the payload bytes and the parsed header must agree.
    capacity = int_capacity()
    int_flag = FLAG_INT if capacity is not None else 0

    common = (enc.codec_id, enc.head_bits, enc.tail_bits, meta.message_id, meta.epoch)

    def header(chunk_index: int, coord_offset: int, coord_count: int, flags: int) -> GradientHeader:
        return GradientHeader(*common, chunk_index, coord_offset, coord_count, meta.seed, 1, flags)

    # The largest values any header of this message carries: a message too
    # big for the wire format fails here, typed, before anything is packed.
    header(num_chunks, full_chunks * n_per_packet, n_per_packet, int_flag).check_fits()

    meta_header = header(0, 0, 0, FLAG_METADATA | int_flag)
    packets = [
        Packet(
            src=src,
            dst=dst,
            payload=meta_header.to_bytes() + meta.to_bytes(),
            grad_header=meta_header,
            priority=1,
            flow_id=flow_id,
            int_ext=INTExtension(capacity) if capacity is not None else None,
        )
    ]

    # Lay every payload out in a single contiguous message buffer; each
    # packet's payload is a read-only zero-copy view into it (owned bytes
    # only appear again when a switch trims — see Packet.trim).
    head_bytes = packed_size(n_per_packet, enc.head_bits)
    tail_bytes = packed_size(n_per_packet, enc.tail_bits)
    last_count = enc.length - full_chunks * n_per_packet
    last_head_bytes = packed_size(last_count, enc.head_bits)
    last_tail_bytes = packed_size(last_count, enc.tail_bits)
    full_payload = GRADIENT_HEADER_BYTES + head_bytes + tail_bytes
    last_payload = GRADIENT_HEADER_BYTES + last_head_bytes + last_tail_bytes
    last_pos = full_payload * full_chunks
    buf = bytearray(last_pos + last_payload)

    # Every chunk but the last has the same geometry, so their payloads are
    # the rows of a matrix over ``buf``; the last chunk may be short, so it
    # is a row of its own.  The header block is one strided store (plus two
    # header columns) and each plane is packed, a row group at a time,
    # straight into its columns of those rows.
    octets = np.frombuffer(buf, dtype=np.uint8)
    rows = octets[:last_pos].reshape(full_chunks, full_payload)
    last_row = octets[last_pos + GRADIENT_HEADER_BYTES :]
    tails_at = GRADIENT_HEADER_BYTES + head_bytes
    header(1, 0, n_per_packet, int_flag).pack_run(rows[:, :GRADIENT_HEADER_BYTES], n_per_packet)
    header(num_chunks, full_chunks * n_per_packet, last_count, int_flag).pack_into(buf, last_pos)
    heads_out = rows[:, GRADIENT_HEADER_BYTES:tails_at], last_row[:last_head_bytes]
    tails_out = rows[:, tails_at:], last_row[last_head_bytes:]
    pack_segments(enc.heads, enc.head_bits, n_per_packet, out=heads_out)
    pack_segments(enc.tails, enc.tail_bits, n_per_packet, out=tails_out)

    views = memoryview(buf).toreadonly()
    for chunk in range(num_chunks):
        pos = chunk * full_payload
        offset = chunk * n_per_packet
        packets.append(
            Packet(
                src=src,
                dst=dst,
                payload=views[pos : pos + full_payload],  # the last chunk's slice ends with buf
                grad_header=header(
                    chunk + 1, offset, min(n_per_packet, enc.length - offset), int_flag
                ),
                flow_id=flow_id,
                seq=chunk + 1,
                int_ext=INTExtension(capacity) if capacity is not None else None,
            )
        )
    tracer = get_tracer()
    if tracer.enabled:
        tracer.event(
            "packetize",
            message_id=meta.message_id,
            epoch=meta.epoch,
            coords=enc.length,
            packets=len(packets),
            bytes=sum(p.wire_size for p in packets),
            src=src,
            dst=dst,
            flow_id=flow_id,
        )
    return packets


def depacketize(packets: Iterable[Packet], length: Optional[int] = None) -> GradientMessage:
    """Reassemble received packets into a :class:`GradientMessage`.

    Packets may arrive in any order; trimmed packets contribute heads
    only; coordinates not covered by any packet are flagged missing.
    ``length`` overrides the total coordinate count (otherwise inferred
    from the highest coordinate range seen plus the metadata packet).
    """
    # Parse every gradient header exactly once up front, and read its
    # flags word directly: the ``trimmed`` / ``is_metadata`` properties
    # cost a call each, several times a packet.
    data_packets: list[tuple[GradientHeader, Packet]] = []
    metadata: Optional[GradientMetadata] = None
    geometry: Optional[GradientHeader] = None

    for pkt in packets:
        header = pkt.grad_header or GradientHeader.from_bytes(pkt.payload)
        if header.flags & FLAG_METADATA:
            metadata = GradientMetadata.from_bytes(pkt.payload[GRADIENT_HEADER_BYTES:])
            geometry = geometry or header
        else:
            data_packets.append((header, pkt))
    if data_packets:
        geometry = data_packets[0][0]
    if geometry is None:
        raise ValueError("no gradient packets to depacketize")

    if length is None:
        length = max(
            (hdr.coord_offset + hdr.coord_count for hdr, _ in data_packets),
            default=0,
        )

    heads = np.zeros(length, dtype=np.uint32)
    tails = np.zeros(length, dtype=np.uint32)
    trimmed = np.zeros(length, dtype=bool)
    covered = np.zeros(length, dtype=bool)

    # Group arrived packets by geometry and invert each group's packed
    # planes in one batched call; a message's packets share one geometry
    # (plus a possibly-smaller final chunk and the trimmed variants), so
    # this collapses the per-packet unpack loop into a handful of calls.
    # A group is (payload offset of the tail plane, of the payload's end,
    # coord offsets, head planes, tail planes).
    groups: dict[
        tuple[int, int, int, bool],
        tuple[int, int, list[int], list[memoryview], list[memoryview]],
    ] = {}
    # Geometry of the *untrimmed* encoding comes from the first untrimmed
    # data packet; with every packet trimmed, the head plane width is
    # whatever survived.
    full_bits: Optional[tuple[int, int]] = None
    for hdr, pkt in data_packets:
        lo, hi = hdr.coord_offset, hdr.coord_offset + hdr.coord_count
        if hi > length:
            raise ValueError(f"packet covers coords [{lo},{hi}) beyond length {length}")
        was_trimmed = bool(hdr.flags & FLAG_TRIMMED)
        if full_bits is None and not was_trimmed:
            full_bits = (hdr.head_bits, hdr.tail_bits)
        key = (hdr.coord_count, hdr.head_bits, hdr.tail_bits, was_trimmed)
        group = groups.get(key)
        if group is None:
            tails_at = GRADIENT_HEADER_BYTES + packed_size(hdr.coord_count, hdr.head_bits)
            end = tails_at + (0 if was_trimmed else packed_size(hdr.coord_count, hdr.tail_bits))
            group = groups[key] = (tails_at, end, [], [], [])
        tails_at, end, los, head_planes, tail_planes = group
        payload = memoryview(pkt.payload)
        if len(payload) < end:
            raise ValueError(
                f"need {end - GRADIENT_HEADER_BYTES} payload bytes for {hdr.coord_count} coords "
                f"({hdr.head_bits}+{0 if was_trimmed else hdr.tail_bits} bits), "
                f"got {max(len(payload) - GRADIENT_HEADER_BYTES, 0)}"
            )
        los.append(lo)
        head_planes.append(payload[GRADIENT_HEADER_BYTES:tails_at])
        if not was_trimmed:
            tail_planes.append(payload[tails_at:end])

    for (count, head_bits, tail_bits, was_trimmed), group in groups.items():
        _, _, los, head_planes, tail_planes = group
        offsets = np.asarray(los, dtype=np.int64)
        if count and not (offsets % count).any():
            # Every packet sits on the group's own coord_count grid (all
            # that packetize emits, bar the short final chunk): view the
            # planes as rows of `count` coordinates and store whole rows.
            width = count
            index = (offsets // count)[:, None]
        else:
            # Misaligned or hand-built packets: one index per coordinate.
            width = 1
            index = offsets[:, None] + np.arange(count)
        grid = length - length % width
        head_rows, tail_rows, trimmed_rows, covered_rows = (
            plane[:grid].reshape(-1, width) for plane in (heads, tails, trimmed, covered)
        )
        covered_rows[index] = True
        if was_trimmed:
            trimmed_rows[index] = True
        # Unpack a row group of packets at a time, so that what is scattered
        # into the planes is still in cache and no whole-plane copy exists.
        for start in range(0, len(los), ROW_GROUP):
            some = slice(start, start + ROW_GROUP)
            into = index[some].reshape(-1)
            head_rows[into] = unpack_batch(head_planes[some], count, head_bits).reshape(-1, width)
            if not was_trimmed:
                unpacked = unpack_batch(tail_planes[some], count, tail_bits)
                tail_rows[into] = unpacked.reshape(-1, width)

    full_head_bits, full_tail_bits = full_bits or (geometry.head_bits, geometry.tail_bits)
    return GradientMessage(
        heads=heads,
        tails=tails,
        trimmed=trimmed,
        missing=~covered,
        metadata=metadata,
        codec_id=geometry.codec_id,
        head_bits=full_head_bits,
        tail_bits=full_tail_bits,
        length=length,
    )


def decode_packets(
    packets: Sequence[Packet],
    codec: Optional[GradientCodec] = None,
    length: Optional[int] = None,
) -> np.ndarray:
    """One-call receive path: depacketize then codec-decode.

    When ``codec`` is omitted it is instantiated from the wire codec id.
    """
    start = time.perf_counter()
    message = depacketize(packets, length=length)
    if codec is None:
        codec = codec_by_id(message.codec_id)
    enc = message.to_encoded()
    decoded = codec.decode(enc, trimmed=message.trimmed, missing=message.missing)
    tracer = get_tracer()
    if tracer.enabled:
        tracer.event(
            "decode",
            duration_s=time.perf_counter() - start,
            codec=type(codec).__name__,
            coords=int(decoded.size),
            packets=len(packets),
            packets_trimmed=sum(1 for p in packets if p.is_trimmed),
            coords_trimmed=int(np.count_nonzero(message.trimmed)),
            coords_missing=int(np.count_nonzero(message.missing)),
        )
    return decoded
