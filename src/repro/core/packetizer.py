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

* ``packetize`` packs every packet's heads and tails in one batched
  :func:`~repro.packet.bitpack.pack_segments` call each, writes all
  payloads (headers included, via the precompiled struct template) into
  one contiguous message buffer, and hands each packet a read-only
  zero-copy ``memoryview`` slice of that buffer.
* ``depacketize`` parses each gradient header exactly once, groups the
  arrived packets by geometry, and inverts every group's packed planes
  with one batched :func:`~repro.packet.bitpack.unpack_batch` call
  instead of two ``unpack_bits`` calls per packet, and stores a group
  that lies on its own ``coord_count`` grid as whole rows.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from ..obs.int_telemetry import INTExtension, int_capacity
from ..obs.trace import get_tracer
from ..packet.bitpack import pack_segments, packed_size, unpack_batch
from ..packet.header import (
    FLAG_INT,
    FLAG_METADATA,
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
    packets: list[Packet] = []

    # When INT is enabled, every packet of this message carries a
    # fixed-size telemetry band.  The FLAG_INT bit is baked into the
    # headers *now*, before they are serialized into the shared read-only
    # buffer — the payload bytes and the parsed header must agree.
    capacity = int_capacity()
    int_flag = FLAG_INT if capacity is not None else 0

    meta_header = GradientHeader(
        codec_id=enc.codec_id,
        head_bits=enc.head_bits,
        tail_bits=enc.tail_bits,
        message_id=meta.message_id,
        epoch=meta.epoch,
        chunk_index=0,
        coord_offset=0,
        coord_count=0,
        seed=meta.seed,
        flags=FLAG_METADATA | int_flag,
    )
    packets.append(
        Packet(
            src=src,
            dst=dst,
            payload=meta_header.to_bytes() + meta.to_bytes(),
            grad_header=meta_header,
            priority=1,
            flow_id=flow_id,
            int_ext=INTExtension(capacity) if capacity is not None else None,
        )
    )

    # Pack the whole head and tail planes in one batched call each, with
    # byte-aligned per-packet segments, then lay every payload out in a
    # single contiguous message buffer.  Each packet's payload is a
    # read-only zero-copy view into that buffer (owned bytes only appear
    # again when a switch trims — see Packet.trim).
    heads_plane = pack_segments(enc.heads, enc.head_bits, n_per_packet)
    tails_plane = pack_segments(enc.tails, enc.tail_bits, n_per_packet)
    num_chunks = heads_plane.num_segments
    # Every segment but the last has identical geometry; hoist the size
    # arithmetic out of the per-packet loop (packed_size per packet shows
    # up in profiles at this call rate).
    full_head_bytes = packed_size(n_per_packet, enc.head_bits)
    full_tail_bytes = packed_size(n_per_packet, enc.tail_bits)
    last_count = heads_plane.segment_count(num_chunks - 1)
    last_head_bytes = packed_size(last_count, enc.head_bits)
    last_tail_bytes = packed_size(last_count, enc.tail_bits)
    full_payload = GRADIENT_HEADER_BYTES + full_head_bytes + full_tail_bytes
    last_payload = GRADIENT_HEADER_BYTES + last_head_bytes + last_tail_bytes
    buf = bytearray(full_payload * (num_chunks - 1) + last_payload)
    heads_buf = memoryview(heads_plane.buffer)
    tails_buf = memoryview(tails_plane.buffer)
    views = memoryview(buf).toreadonly()
    head_seg_bytes = heads_plane.seg_bytes
    tail_seg_bytes = tails_plane.seg_bytes

    pos = 0
    for chunk in range(num_chunks):
        last = chunk == num_chunks - 1
        count = last_count if last else n_per_packet
        head_bytes = last_head_bytes if last else full_head_bytes
        tail_bytes = last_tail_bytes if last else full_tail_bytes
        payload_size = last_payload if last else full_payload
        header = GradientHeader(
            codec_id=enc.codec_id,
            head_bits=enc.head_bits,
            tail_bits=enc.tail_bits,
            message_id=meta.message_id,
            epoch=meta.epoch,
            chunk_index=chunk + 1,
            coord_offset=chunk * n_per_packet,
            coord_count=count,
            seed=meta.seed,
            flags=int_flag,
        )
        header.pack_into(buf, pos)
        cursor = pos + GRADIENT_HEADER_BYTES
        hs = chunk * head_seg_bytes
        ts = chunk * tail_seg_bytes
        buf[cursor : cursor + head_bytes] = heads_buf[hs : hs + head_bytes]
        cursor += head_bytes
        buf[cursor : cursor + tail_bytes] = tails_buf[ts : ts + tail_bytes]
        packets.append(
            Packet(
                src=src,
                dst=dst,
                payload=views[pos : pos + payload_size],
                grad_header=header,
                flow_id=flow_id,
                seq=chunk + 1,
                int_ext=INTExtension(capacity) if capacity is not None else None,
            )
        )
        pos += payload_size
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
    # Parse every gradient header exactly once up front (satellite of the
    # fast-path rework: the old code re-parsed headers up to three times
    # per packet during length inference).
    data_packets: list[tuple[GradientHeader, Packet]] = []
    metadata: Optional[GradientMetadata] = None
    geometry: Optional[GradientHeader] = None

    for pkt in packets:
        header = pkt.grad_header or GradientHeader.from_bytes(pkt.payload)
        if header.is_metadata:
            metadata = GradientMetadata.from_bytes(pkt.payload[GRADIENT_HEADER_BYTES:])
            geometry = geometry or header
        else:
            data_packets.append((header, pkt))
            geometry = header if geometry is None or geometry.is_metadata else geometry

    if geometry is None:
        raise ValueError("no gradient packets to depacketize")

    if length is None:
        length = max(
            (hdr.coord_offset + hdr.coord_count for hdr, _ in data_packets),
            default=0,
        )

    # Geometry fields for the *untrimmed* encoding come from any data
    # packet: a trimmed packet reports its post-trim head_bits, so derive
    # the full split from head_bits + tail_bits which trim preserves.
    full_head_bits = None
    full_tail_bits = None
    for hdr, _ in data_packets:
        if not hdr.trimmed:
            full_head_bits, full_tail_bits = hdr.head_bits, hdr.tail_bits
            break
    if full_head_bits is None or full_tail_bits is None:
        # All packets trimmed: the head plane width is whatever survived.
        full_head_bits = geometry.head_bits
        full_tail_bits = geometry.tail_bits

    heads = np.zeros(length, dtype=np.uint32)
    tails = np.zeros(length, dtype=np.uint32)
    trimmed = np.zeros(length, dtype=bool)
    covered = np.zeros(length, dtype=bool)

    # Group arrived packets by geometry and invert each group's packed
    # planes in one batched call; a message's packets share one geometry
    # (plus a possibly-smaller final chunk and the trimmed variants), so
    # this collapses the per-packet unpack loop into a handful of calls.
    # A group is (head plane bytes, body bytes, coord offsets, bodies).
    groups: dict[tuple[int, int, int, bool], tuple[int, int, list[int], list[memoryview]]] = {}
    for hdr, pkt in data_packets:
        lo, hi = hdr.coord_offset, hdr.coord_offset + hdr.coord_count
        if hi > length:
            raise ValueError(f"packet covers coords [{lo},{hi}) beyond length {length}")
        key = (hdr.coord_count, hdr.head_bits, hdr.tail_bits, hdr.trimmed)
        group = groups.get(key)
        if group is None:
            head_need = packed_size(hdr.coord_count, hdr.head_bits)
            tail_need = 0 if hdr.trimmed else packed_size(hdr.coord_count, hdr.tail_bits)
            group = groups[key] = (head_need, head_need + tail_need, [], [])
        _, need, los, bodies = group
        body = memoryview(pkt.payload)[GRADIENT_HEADER_BYTES:]
        if len(body) < need:
            raise ValueError(
                f"need {need} payload bytes for {hdr.coord_count} coords "
                f"({hdr.head_bits}+{0 if hdr.trimmed else hdr.tail_bits} bits), "
                f"got {len(body)}"
            )
        los.append(lo)
        bodies.append(body[:need])

    for (count, head_bits, tail_bits, was_trimmed), (head_need, _, los, bodies) in groups.items():
        offsets = np.asarray(los, dtype=np.int64)
        if count and not (offsets % count).any():
            # Every packet sits on the group's own coord_count grid (all
            # that packetize emits, bar the short final chunk): view the
            # planes as rows of `count` coordinates and store whole rows.
            width = count
            index = offsets // count
        else:
            # Misaligned or hand-built packets: one index per coordinate.
            width = 1
            index = (offsets[:, None] + np.arange(count)).reshape(-1)
        grid = length - length % width
        head_rows, tail_rows, trimmed_rows, covered_rows = (
            plane[:grid].reshape(-1, width) for plane in (heads, tails, trimmed, covered)
        )
        head_vals = unpack_batch([b[:head_need] for b in bodies], count, head_bits)
        head_rows[index] = head_vals.reshape(-1, width)
        covered_rows[index] = True
        if was_trimmed:
            trimmed_rows[index] = True
        else:
            tail_vals = unpack_batch([b[head_need:] for b in bodies], count, tail_bits)
            tail_rows[index] = tail_vals.reshape(-1, width)

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
