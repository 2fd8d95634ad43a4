"""Gradient blob ⇄ trimmable packets.

``packetize`` lays an :class:`~repro.core.codec.EncodedGradient` out on
the wire exactly as Figure 2(b) prescribes: every packet carries its
32-byte self-describing gradient header, then the packed ``P``-bit heads
of its ``n`` coordinates, then their ``Q``-bit tails.  A switch that trims
the packet after the heads leaves a decodable prefix.  A code listed in
:data:`~repro.packet.header.CODE_PLANES` (Section 5.1's multi-level
code) splits its tails into further planes, each packed whole, so a cut
at any plane boundary leaves a decodable prefix too.

``depacketize`` reassembles whatever arrived — full packets, cut
packets, or holes where packets were dropped — into per-coordinate head /
tail arrays plus masks (and, for a code of more planes, the depth that
arrived), ready for the codec's decoder.

Both directions run on the training hot path (once per gradient per
step), so they are whole-message vectorized (see docs/performance.md):

* ``packetize`` lays all payloads (headers included, via the precompiled
  struct template) out in one contiguous message buffer, has
  :func:`~repro.packet.bitpack.pack_segments` pack each plane
  straight into its columns of that buffer's rows, and hands
  each packet a read-only zero-copy ``memoryview`` slice of it.  The
  header bytes in the buffer are the only header: a packet is one object.
* ``depacketize`` reads each header from its payload's bytes with one
  struct call, checks that the set is one message, groups the arrived
  packets by geometry, and inverts every group's packed planes with
  batched :func:`~repro.packet.bitpack.unpack_batch` calls over the
  joined payloads of a row group of packets, instead of two
  ``unpack_bits`` calls per packet, and stores a group that lies on its
  own ``coord_count`` grid as whole rows.  The short final chunk is
  zero-padded into a full row of the same group, so a clean message is
  one group and each plane one kernel call per row group.
"""

from __future__ import annotations

import struct
import time
from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

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
    code_planes,
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
        depth: bits per coordinate that arrived, for a code of more than
            two planes (see :class:`~repro.core.codec.EncodedGradient`).
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
    depth: Optional[np.ndarray] = None

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
            depth=self.depth,
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
    planes = code_planes(enc.codec_id, enc.head_bits, enc.tail_bits)
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
    # only appear again when a switch trims — see Packet.cut).
    sizes = [packed_size(n_per_packet, bits) for bits in planes]
    last_count = enc.length - full_chunks * n_per_packet
    last_sizes = [packed_size(last_count, bits) for bits in planes]
    full_payload = GRADIENT_HEADER_BYTES + sum(sizes)
    last_payload = GRADIENT_HEADER_BYTES + sum(last_sizes)
    last_pos = full_payload * full_chunks
    buf = bytearray(last_pos + last_payload)

    # Every chunk but the last has the same geometry, so their payloads are
    # the rows of a matrix over ``buf``; the last chunk may be short, so its
    # payload follows them.  The header block is one strided store (plus two
    # header columns) and each plane is packed, a row group at a time,
    # straight into its columns of those rows and of the last payload
    # (which rides in the last row group: see ``pack_segments``).
    octets = np.frombuffer(buf, dtype=np.uint8)
    rows = octets[:last_pos].reshape(full_chunks, full_payload)
    last_row = octets[last_pos + GRADIENT_HEADER_BYTES :]
    header(1, 0, n_per_packet, int_flag).pack_run(rows[:, :GRADIENT_HEADER_BYTES], n_per_packet)
    header(num_chunks, full_chunks * n_per_packet, last_count, int_flag).pack_into(buf, last_pos)
    at, last_at = GRADIENT_HEADER_BYTES, 0
    for values, bits, size, last_size in zip(
        (enc.heads, *_split(enc.tails, planes[1:])), planes, sizes, last_sizes
    ):
        out = rows[:, at : at + size], last_row[last_at : last_at + last_size]
        pack_segments(values, bits, n_per_packet, out=out)
        at, last_at = at + size, last_at + last_size

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


def _split(tails: np.ndarray, widths: Sequence[int]) -> List[np.ndarray]:
    """A code's tail planes, front first: ``tails`` holds their bits
    concatenated, the first plane's highest."""
    if len(widths) == 1:
        return [tails]
    planes = []
    shift = sum(widths)
    for width in widths:
        shift -= width
        planes.append((tails >> np.uint32(shift)) & np.uint32((1 << width) - 1))
    return planes


def depacketize(packets: Iterable[Packet], length: Optional[int] = None) -> GradientMessage:
    """Reassemble received packets into a :class:`GradientMessage`.

    Packets may arrive in any order and more than once; a cut packet
    contributes the planes above its cut (a two-plane code's: the heads),
    and of two copies of a coordinate the deeper one is kept, whichever
    came first; coordinates not covered by any packet are flagged
    missing.  ``length`` overrides the total coordinate count (otherwise
    the metadata packet's, or without it the end of the highest
    coordinate range seen).

    Every header is read from its payload's bytes, and the set must be
    one message.  ``ValueError`` says what is wrong when a payload is too
    short for a header or has a bad magic; when two headers disagree on
    version, codec id, code width (head + tail bits), message id, epoch
    or seed; when a header's head bits are not a plane boundary of the
    code; when a payload is not exactly as long as its header's
    ``coord_count`` and arrived depth make it; when two metadata packets
    differ; when a packet runs beyond ``length``; and, with the metadata
    packet in the set, when a data packet is off the message's grid
    (:func:`check_grid`).
    """
    # One struct call a packet reads its header.  The message's identity
    # is three byte strings, compared with those already accepted (the
    # middle one holds the head / tail split, which a cut moves); data
    # packets are grouped as they come by (coord_count, arrived depth,
    # whether the packet starts where its chunk index puts it on the grid
    # of its own coord_count — every packet but a message's final chunk
    # does).
    read = SET_VIEW.unpack_from
    geometry: Optional[GradientHeader] = None
    first: Payload = b""
    lead = seed = b""
    heads_of: Dict[bytes, int] = {}  # an accepted middle -> its head bits
    planes: Tuple[int, ...] = ()  # the code's plane widths
    cuts: Tuple[int, ...] = ()  # their boundaries, the last the full depth
    full = 0
    meta_payload: Optional[Payload] = None
    groups: Groups = {}
    for pkt in packets:
        payload = pkt.payload
        try:
            its_lead, flags, its_middle, chunk, lo, count, its_seed = read(payload)
        except struct.error:
            raise ValueError(
                f"gradient header needs {GRADIENT_HEADER_BYTES} bytes, got {len(payload)}"
            ) from None
        head = heads_of.get(its_middle)
        if head is None or its_lead != lead or its_seed != seed:
            header = GradientHeader.from_bytes(payload)
            if geometry is None:
                geometry, first, lead, seed = header, payload, its_lead, its_seed
                planes = code_planes(header.codec_id, header.head_bits, header.tail_bits)
                cuts = tuple(accumulate(planes))
                full = cuts[-1]
            head = header.head_bits
            if [getattr(header, name) for name in _SHARED] != [
                getattr(geometry, name) for name in _SHARED
            ] or head + header.tail_bits != full:
                raise _disagreement(first, payload)
            if head not in cuts[:-1]:
                raise ValueError(
                    f"head_bits {head} is not a plane boundary of codec "
                    f"{header.codec_id}'s code {cuts}"
                )
            heads_of[its_middle] = head
        if flags & FLAG_METADATA:
            if meta_payload is None:
                meta_payload = payload
            elif meta_payload != payload:
                raise ValueError("two different metadata packets in one message")
            continue
        key = (count, head if flags & FLAG_TRIMMED else full, lo == (chunk - 1) * count)
        members = groups.get(key)
        if members is None:
            members = groups[key] = []
        members.append((lo, chunk, payload))
    if geometry is None:
        raise ValueError("no gradient packets to depacketize")

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

    # A full packet's coord_count: the message's grid.  A short packet that
    # starts on it and ends the message (the final chunk) is widened to a
    # zero-padded full row and joins the full packets of its depth, so a
    # clean message is one group; its padding lands past ``length``.
    n = max((count for count, _, in_place in groups if in_place), default=0)

    def plane_ends(count: int, arrived: int) -> List[int]:
        """Byte offsets in a payload of ``count`` coordinates cut to
        ``arrived`` bits: the header's end, then each kept plane's."""
        kept = planes[: cuts.index(arrived) + 1]
        return list(accumulate([GRADIENT_HEADER_BYTES] + [packed_size(count, b) for b in kept]))

    # Each group's packets as ``(offsets, payloads)``, checked against the
    # message before any is widened.
    stores: Dict[Tuple[int, int, bool], Tuple[List[int], List[Payload]]] = {}
    for (count, arrived, in_place), members in groups.items():
        los, _, payloads = zip(*members)
        ends = plane_ends(count, arrived)
        lo = max(los)
        if lo + count > length:
            raise ValueError(f"packet covers coords [{lo},{lo + count}) beyond length {length}")
        wrong = set(map(len, payloads)) - {ends[-1]}
        if wrong:
            raise ValueError(
                f"need {ends[-1] - GRADIENT_HEADER_BYTES} payload bytes for {count} coords "
                f"({'+'.join(map(str, planes[: len(ends) - 1]))} bits), "
                f"got {max(min(wrong) - GRADIENT_HEADER_BYTES, 0)}"
            )
        key = (count, arrived, in_place)
        short = not in_place and 0 < count < n
        if short and all(lo % n == 0 and lo + count == length for lo in los):
            key = (n, arrived, True)
            wide = plane_ends(n, arrived)
            payloads = tuple(_widen(payload, ends, wide) for payload in payloads)
        offsets, kept = stores.setdefault(key, ([], []))
        offsets.extend(los)
        kept.extend(payloads)

    size = length + n  # room for a widened final row
    heads, tails = codes = np.zeros((2, size), dtype=np.uint32)
    trimmed, covered = np.zeros((2, size), dtype=bool)
    # Only a code of more than two planes has depths the masks cannot say.
    depth = np.zeros(size, dtype=np.uint8) if len(planes) > 2 else None

    # Invert each group's packed planes in batched calls, shallowest depth
    # first, so that of two copies of a coordinate the deepest is kept
    # whatever their order.
    cut = False
    by_depth = sorted(stores.items(), key=lambda group: group[0][1])
    for (count, arrived, in_place), (los, payloads) in by_depth:
        ends = plane_ends(count, arrived)
        if in_place and count:
            # Packets where their chunk index puts them on their own
            # coord_count grid: view the planes as rows of `count`
            # coordinates and store whole rows.
            index = np.asarray(los) // count
            head_rows, tail_rows, trimmed_rows, covered_rows, depth_rows = (
                None if plane is None else plane[: size - size % count].reshape(-1, count)
                for plane in (heads, tails, trimmed, covered, depth)
            )
        else:
            # Hand-built packets: one index per coordinate.
            index = np.add.outer(los, np.arange(count))
            head_rows, tail_rows, trimmed_rows, covered_rows, depth_rows = (
                heads, tails, trimmed, covered, depth
            )
        covered_rows[index] = True
        if arrived != full:
            trimmed_rows[index] = cut = True
        elif cut:  # a full copy of a coordinate a shallower group marked trimmed
            trimmed_rows[index] = False
        if depth_rows is not None:
            depth_rows[index] = arrived
        # A row group of packets at a time: their payloads joined are a
        # (packets, payload bytes) matrix whose column ranges are the
        # planes, and what is scattered into the planes is still in cache.
        for start in range(0, len(payloads), ROW_GROUP):
            into = index[start : start + ROW_GROUP]
            batch = payloads[start : start + ROW_GROUP]
            rows = np.frombuffer(b"".join(batch), dtype=np.uint8).reshape(len(batch), ends[-1])
            head_rows[into] = unpack_batch(rows[:, ends[0] : ends[1]], count, planes[0])
            tail = None
            for i in range(1, len(ends) - 1):
                part = unpack_batch(rows[:, ends[i] : ends[i + 1]], count, planes[i])
                shift = full - cuts[i]  # the tail planes' bits concatenated, the first's highest
                if shift:
                    part <<= np.uint32(shift)
                tail = part if tail is None else tail | part
            if tail is not None:
                tail_rows[into] = tail

    heads, tails, trimmed, covered = (plane[:length] for plane in (*codes, trimmed, covered))
    if depth is not None:
        depth = depth[:length]
    return GradientMessage(
        heads=heads,
        tails=tails,
        trimmed=trimmed,
        missing=~covered,
        metadata=metadata,
        codec_id=geometry.codec_id,
        head_bits=planes[0],
        tail_bits=full - planes[0],
        length=length,
        depth=depth,
    )


def _widen(payload: Payload, ends: List[int], wide: List[int]) -> bytes:
    """``payload`` with each plane zero-padded from its ``ends`` columns to
    the ``wide`` ones of a full packet's (the header is kept as it is)."""
    parts: List[Payload] = [payload[: ends[0]]]
    for i in range(1, len(ends)):
        parts.append(payload[ends[i - 1] : ends[i]])
        parts.append(bytes((wide[i] - wide[i - 1]) - (ends[i] - ends[i - 1])))
    return b"".join(parts)


#: A receiver's data packets: ``(coord_count, depth, in_place)`` to the
#: ``(coord_offset, chunk_index, payload)`` of each packet that arrived
#: with ``depth`` bits per coordinate, where ``in_place`` says that the
#: packet starts at ``(chunk_index - 1) * coord_count``.
Payload = Union[bytes, memoryview]
Groups = Dict[Tuple[int, int, bool], List[Tuple[int, int, Payload]]]


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


def _disagreement(first: Payload, other: Payload) -> ValueError:
    """The error for two headers of one set that name different messages."""
    a, b = GradientHeader.from_bytes(first), GradientHeader.from_bytes(other)
    differ = [name for name in _IDENTITY if getattr(a, name) != getattr(b, name)]
    return ValueError(
        "packets of two messages in one set: "
        + ", ".join(f"{name} {getattr(a, name)} != {getattr(b, name)}" for name in differ)
    )


#: The header fields every packet of one message shares (``SET_VIEW``'s
#: three byte strings, magic aside); a cut moves bits from the tail to the
#: head, so what the packets share of those two is their sum.
_IDENTITY = ("version", "codec_id", "head_bits", "tail_bits", "message_id", "epoch", "seed")
_SHARED = ("version", "codec_id", "message_id", "epoch", "seed")


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
