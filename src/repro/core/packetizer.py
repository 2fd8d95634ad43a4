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
  each packet a read-only zero-copy ``memoryview`` slice of it.  The
  header bytes in the buffer are the only header: a packet is one object.
* ``depacketize`` reads each header from its payload's bytes with one
  struct call, checks that the set is one message, groups the arrived
  packets by geometry, and inverts every group's packed planes with
  batched :func:`~repro.packet.bitpack.unpack_batch` calls over the
  joined payloads of a row group of packets, instead of two
  ``unpack_bits`` calls per packet, and stores a group that lies on its
  own ``coord_count`` grid as whole rows.
"""

from __future__ import annotations

import struct
import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..obs.int_telemetry import INTExtension, int_capacity
from ..obs.trace import get_tracer
from ..packet.bitpack import ROW_GROUP, pack_segments, packed_size, unpack_batch
from ..packet.header import (
    FLAG_INT,
    FLAG_METADATA,
    FLAG_TRIMMED,
    GRADIENT_HEADER_BYTES,
    SET_VIEW,
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
    # fixed-size telemetry band, and FLAG_INT is baked into the headers
    # before they are serialized into the shared read-only buffer.
    capacity = int_capacity()
    int_flag = FLAG_INT if capacity is not None else 0

    common = (enc.codec_id, enc.head_bits, enc.tail_bits, meta.message_id, meta.epoch)

    def header(chunk_index: int, coord_offset: int, coord_count: int, flags: int) -> GradientHeader:
        return GradientHeader(*common, chunk_index, coord_offset, coord_count, meta.seed, 1, flags)

    # The largest values any header of this message carries: a message too
    # big for the wire format fails here, typed, before anything is packed.
    header(num_chunks, full_chunks * n_per_packet, n_per_packet, int_flag).check_fits()

    packets = [
        Packet(
            src=src,
            dst=dst,
            payload=header(0, 0, 0, FLAG_METADATA | int_flag).to_bytes() + meta.to_bytes(),
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
        packets.append(
            Packet(
                src=src,
                dst=dst,
                payload=views[pos : pos + full_payload],  # the last chunk's slice ends with buf
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

    Packets may arrive in any order and more than once; trimmed packets
    contribute heads only; coordinates not covered by any packet are
    flagged missing.  ``length`` overrides the total coordinate count
    (otherwise the metadata packet's, or without it the end of the
    highest coordinate range seen).

    Every header is read from its payload's bytes, and the set must be
    one message.  ``ValueError`` says what is wrong when a payload is too
    short for a header or has a bad magic; when two headers disagree on
    version, codec id, head/tail bits, message id, epoch or seed; when a
    payload is not exactly as long as its header's ``coord_count`` and
    TRIMMED flag make it; when two metadata packets differ; when a packet
    runs beyond ``length``; and, with the metadata packet in the set, when
    a data packet is off the message's grid (:func:`check_grid`).
    """
    # One struct call a packet reads its header.  The message's identity
    # is three byte strings, compared with the first packet's; data
    # packets are grouped as they come by (coord_count, TRIMMED, whether
    # the packet starts where its chunk index puts it on the grid of its
    # own coord_count — every packet but a message's final chunk does).
    read = SET_VIEW.unpack_from
    geometry: Optional[GradientHeader] = None
    first: "bytes | memoryview" = b""
    lead = middle = seed = b""
    meta_payload: "Optional[bytes | memoryview]" = None
    groups: Groups = {}
    for pkt in packets:
        payload = pkt.payload
        try:
            its_lead, flags, its_middle, chunk, lo, count, its_seed = read(payload)
        except struct.error:
            raise ValueError(
                f"gradient header needs {GRADIENT_HEADER_BYTES} bytes, got {len(payload)}"
            ) from None
        if its_lead != lead or its_middle != middle or its_seed != seed:
            if geometry is not None:
                raise _disagreement(first, payload)
            geometry = GradientHeader.from_bytes(payload)
            first, lead, middle, seed = payload, its_lead, its_middle, its_seed
        if flags & FLAG_METADATA:
            if meta_payload is None:
                meta_payload = payload
            elif meta_payload != payload:
                raise ValueError("two different metadata packets in one message")
            continue
        key = (count, flags & FLAG_TRIMMED, lo == (chunk - 1) * count)
        members = groups.get(key)
        if members is None:
            members = groups[key] = []
        members.append((lo, chunk, payload))
    if geometry is None:
        raise ValueError("no gradient packets to depacketize")

    head_bits, tail_bits = geometry.head_bits, geometry.tail_bits
    metadata = None
    if meta_payload is not None:
        metadata = GradientMetadata.from_bytes(meta_payload[GRADIENT_HEADER_BYTES:])
    if length is None and metadata is not None:
        length = metadata.encoded_length
    elif length is None:
        length = max(
            (lo + count for (count, _, _), members in groups.items() for lo, _, _ in members),
            default=0,
        )
    if metadata is not None:
        check_grid(groups, length)

    heads = np.zeros(length, dtype=np.uint32)
    tails = np.zeros(length, dtype=np.uint32)
    trimmed = np.zeros(length, dtype=bool)
    covered = np.zeros(length, dtype=bool)

    # Invert each group's packed planes in batched calls; a message's
    # packets share one geometry (plus a possibly-smaller final chunk and
    # the trimmed variants), so a message is a handful of groups.
    for (count, trimmed_bit, in_place), members in groups.items():
        los, _, payloads = zip(*members)
        lo = max(los)
        if lo + count > length:
            raise ValueError(f"packet covers coords [{lo},{lo + count}) beyond length {length}")
        tails_at = GRADIENT_HEADER_BYTES + packed_size(count, head_bits)
        end = tails_at if trimmed_bit else tails_at + packed_size(count, tail_bits)
        wrong = set(map(len, payloads)) - {end}
        if wrong:
            raise ValueError(
                f"need {end - GRADIENT_HEADER_BYTES} payload bytes for {count} coords "
                f"({head_bits}+{0 if trimmed_bit else tail_bits} bits), "
                f"got {max(min(wrong) - GRADIENT_HEADER_BYTES, 0)}"
            )
        offsets = np.asarray(los, dtype=np.int64)
        if in_place and count:
            # Packets where their chunk index puts them on their own
            # coord_count grid (all that packetize emits, bar the short
            # final chunk): view the planes as rows of `count`
            # coordinates and store whole rows.
            width = count
            index = (offsets // count)[:, None]
        else:
            # The final chunk, or hand-built packets: one index per coordinate.
            width = 1
            index = offsets[:, None] + np.arange(count)
        grid = length - length % width
        head_rows, tail_rows, trimmed_rows, covered_rows = (
            plane[:grid].reshape(-1, width) for plane in (heads, tails, trimmed, covered)
        )
        covered_rows[index] = True
        if trimmed_bit:
            trimmed_rows[index] = True
        # A row group of packets at a time: their payloads joined are a
        # (packets, payload bytes) matrix whose column ranges are the two
        # planes, and what is scattered into the planes is still in cache.
        for start in range(0, len(payloads), ROW_GROUP):
            some = slice(start, start + ROW_GROUP)
            into = index[some].reshape(-1)
            batch = payloads[some]
            rows = np.frombuffer(b"".join(batch), dtype=np.uint8).reshape(len(batch), end)
            head_rows[into] = unpack_batch(
                rows[:, GRADIENT_HEADER_BYTES:tails_at], count, head_bits
            ).reshape(-1, width)
            if not trimmed_bit:
                unpacked = unpack_batch(rows[:, tails_at:], count, tail_bits)
                tail_rows[into] = unpacked.reshape(-1, width)

    return GradientMessage(
        heads=heads,
        tails=tails,
        trimmed=trimmed,
        missing=~covered,
        metadata=metadata,
        codec_id=geometry.codec_id,
        head_bits=head_bits,
        tail_bits=tail_bits,
        length=length,
    )


#: A receiver's data packets: ``(coord_count, kind, in_place)`` to the
#: ``(coord_offset, chunk_index, payload)`` of each packet of the kind —
#: trimmed or not for ``depacketize``, the arrived depth for the
#: multi-level codec — where ``in_place`` says that the packet starts at
#: ``(chunk_index - 1) * coord_count``.
Groups = Dict[Tuple[int, int, bool], List[Tuple[int, int, "bytes | memoryview"]]]


def check_grid(groups: Groups, length: int) -> None:
    """Raise ``ValueError`` unless the data packets tile one message's grid.

    ``packetize`` gives chunk ``k`` the coordinates ``[(k - 1)·n,
    min(k·n, length))``, ``n`` being a full packet's: every packet but the
    final chunk is in place with ``n`` coordinates, and the final chunk
    ends the message.  A header whose offset, count or chunk index changed
    in flight breaks this even where its payload's length still fits it.
    When no packet is in place, only copies of the final chunk arrived and
    ``n`` is unknown: the copies need only agree.
    """
    n = max((count for count, _, in_place in groups if in_place and count), default=None)
    final = None
    for (count, _, in_place), members in groups.items():
        if in_place and count == n:
            continue
        for lo, chunk, _ in members:
            if n is None:
                final = final or (lo, chunk)
                ok = (lo, chunk) == final
            else:
                ok = lo == (chunk - 1) * n
            if not ok or lo + count != length:
                raise ValueError(
                    f"data packet {chunk} covers coords [{lo},{lo + count}), off the "
                    f"message's grid of {n or count}-coordinate packets over {length}"
                )


def _disagreement(first: "bytes | memoryview", other: "bytes | memoryview") -> ValueError:
    """The error for two headers of one set that name different messages."""
    a, b = GradientHeader.from_bytes(first), GradientHeader.from_bytes(other)
    differ = [name for name in _IDENTITY if getattr(a, name) != getattr(b, name)]
    return ValueError(
        "packets of two messages in one set: "
        + ", ".join(f"{name} {getattr(a, name)} != {getattr(b, name)}" for name in differ)
    )


#: The header fields every packet of one message shares (``SET_VIEW``'s
#: three byte strings, magic aside).
_IDENTITY = ("version", "codec_id", "head_bits", "tail_bits", "message_id", "epoch", "seed")


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
