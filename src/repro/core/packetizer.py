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
* ``depacketize`` joins the set's headers once and reads them as an
  array (:data:`~repro.packet.header.SET_VIEW`), checks with column ops
  that the set is one message, groups the arrived packets by geometry
  with one sort, and inverts every group's packed planes with batched
  :func:`~repro.packet.bitpack.unpack_batch` calls over the joined
  payloads of a row group of packets, storing a group that lies on its
  own ``coord_count`` grid as whole rows (a run of consecutive rows
  straight into the planes).  The short final chunk is zero-padded into
  a full row of the same group, so a clean message is one group and each
  plane one kernel call per row group.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache
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
    HEAD_BITS_AT,
    HEADER_VIEW,
    MAGIC,
    SET_VIEW,
    SPLIT_VIEW,
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

    # One Packet a chunk, fields by position (src, dst, payload, priority,
    # flow_id, seq): keyword construction is dearer.
    views = memoryview(buf).toreadonly()
    slots = enumerate(range(0, num_chunks * full_payload, full_payload), 1)
    if capacity is None:
        packets += [
            Packet(src, dst, views[pos : pos + full_payload], 0, flow_id, seq)
            for seq, pos in slots  # the last chunk's slice ends with buf
        ]
    else:
        packets += [
            Packet(
                src,
                dst,
                views[pos : pos + full_payload],
                0,
                flow_id,
                seq,
                int_ext=INTExtension(capacity),
            )
            for seq, pos in slots
        ]
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
    code; when two metadata packets differ; with the metadata packet in
    the set, when a data packet is off the message's grid
    (:func:`check_grid`); when a packet runs beyond ``length``; and when
    a payload is not exactly as long as its header's ``coord_count`` and
    arrived depth make it.  Of the first five, the first offending
    packet in arrival order is named; of the rest, the first in the order
    the packets' geometries first arrived.
    """
    payloads = [pkt.payload for pkt in packets]
    if not payloads:
        raise ValueError("no gradient packets to depacketize")
    first = payloads[0]
    if len(first) < GRADIENT_HEADER_BYTES:
        raise _short(first)
    magic, _, _, codec_id, head_bits, tail_bits = HEADER_VIEW.unpack_from(first)[:6]
    if magic != MAGIC:
        GradientHeader.from_bytes(first)  # refuses it, naming the magic
    planes = code_planes(codec_id, head_bits, tail_bits)
    cuts = tuple(accumulate(planes))  # the planes' boundaries, the last the full depth
    full = cuts[-1]

    # The headers joined once are one record array, and the same bytes are
    # four 64-bit words a header: every check below is a column op.  They
    # are read up to the first payload too short for one.
    joined = b"".join([payload[:GRADIENT_HEADER_BYTES] for payload in payloads])
    sizes = np.fromiter(map(len, payloads), dtype=np.int64, count=len(payloads))
    short = None
    if len(joined) < GRADIENT_HEADER_BYTES * len(payloads):
        readable = int((sizes < GRADIENT_HEADER_BYTES).argmax())
        short, payloads, sizes = payloads[readable], payloads[:readable], sizes[:readable]
        joined = joined[: GRADIENT_HEADER_BYTES * readable]
    records = np.frombuffer(joined, dtype=SET_VIEW)
    words = np.frombuffer(joined, dtype="<u8").reshape(-1, 4)
    # A packet of this message has the first one's identity bytes, and its
    # head / tail split is at a plane boundary of the code: for a code of
    # two planes, the first packet's split, which then counts as identity.
    # One word column at a time (the third holds no identity).
    layered = len(planes) > 2
    strange = np.zeros(len(payloads), dtype=bool)
    for word, bits in enumerate(_IDENTITY_BITS if layered else _IDENTITY_AND_SPLIT_BITS):
        if bits:
            strange |= (words[:, word] ^ words[0, word]) & bits != 0
    if layered:
        split = words[:, 0] >> np.uint64(8 * HEAD_BITS_AT)
        off_boundary = split != _split_bits(cuts[0], full - cuts[0])
        for cut in cuts[1:-1]:
            off_boundary &= split != _split_bits(cut, full - cut)
        strange |= off_boundary
    flags = records["flags"]
    metas = (flags & FLAG_METADATA).nonzero()[0].tolist()
    meta_payload = payloads[metas[0]] if metas else None
    # The first packet that is not of this message, then the first
    # metadata packet unlike the first one, then the short payload.
    stranger = int(strange.argmax()) if np.count_nonzero(strange) else len(payloads)
    twin = next((at for at in metas if payloads[at] != meta_payload), len(payloads))
    if stranger < len(payloads) and stranger <= twin:
        raise _stranger(first, payloads[stranger], cuts)
    if twin < len(payloads):
        raise ValueError("two different metadata packets in one message")
    if short is not None:
        raise _short(short)
    metadata = None
    if meta_payload is not None:
        metadata = GradientMetadata.from_bytes(meta_payload[GRADIENT_HEADER_BYTES:])

    # Data packets in groups of one (coord_count, arrived depth, whether
    # the packet starts where its chunk index puts it on the grid of its
    # own coord_count — every packet but a message's final chunk does),
    # the groups in the order their first packet arrived and each's
    # packets in arrival order: one stable sort of a key a packet, the
    # metadata packets' lowest (and dropped).
    lo = records["coord_offset"].astype(np.int64)
    count = records["coord_count"].astype(np.int64)
    chunk = records["chunk_index"].astype(np.int64)
    end = lo + count
    # A cut packet arrived at its head bits, any other at the full depth
    # (FLAG_TRIMMED is bit 0, so the flag is the factor).
    arrived = full - (full - records["head_bits"].astype(np.int64)) * (flags & FLAG_TRIMMED)
    key = count << 18 | arrived << 1 | (end == chunk * count)
    key[metas] = -1
    order = key.argsort(kind="stable")
    ranked = key[order]
    starts = [0, *((ranked[1:] != ranked[:-1]).nonzero()[0] + 1).tolist()]
    spans = sorted(
        zip(order[starts].tolist(), ranked[starts].tolist(), starts, starts[1:] + [len(order)])
    )
    # (coord_count, depth, in place, the group's slice of ``order``)
    groups = [
        (k >> 18, k >> 1 & 0x1FFFF, bool(k & 1), slice(start, stop))
        for _, k, start, stop in spans
        if k >= 0
    ]
    # What the groups' checks read, in that order: a group's is a slice.
    lo_by, end_by, sizes_by = lo[order], end[order], sizes[order]
    if length is None:
        length = metadata.encoded_length if metadata is not None else int(end.max())

    # A full packet's coord_count: the message's grid.  Its full packets
    # are in place; the rest must tile the message with them.
    n = max((width for width, _, placed, _ in groups if placed), default=0)
    if metadata is not None:
        rest = [at for width, _, placed, at in groups if not (placed and width == n and n)]
        if rest:
            off = order[rest[0]] if len(rest) == 1 else np.concatenate([order[at] for at in rest])
            check_grid(n, lo[off], chunk[off], count[off], length)

    # Each group checked against the message, then filed by store: a short
    # packet that starts on the grid and ends the message (the final
    # chunk) is widened to a zero-padded full row and joins the full
    # packets of its depth, so a clean message is one store; its padding
    # lands past ``length``.
    stores: Dict[Tuple[int, int, bool], Tuple[List[np.ndarray], List[Payload]]] = {}
    for width, depth, placed, at in groups:
        ends = _plane_ends(planes, cuts, width, depth)
        if end_by[at].max() > length:
            top = int(lo_by[at].max())
            raise ValueError(f"packet covers coords [{top},{top + width}) beyond length {length}")
        wrong = sizes_by[at] != ends[-1]
        if np.count_nonzero(wrong):
            raise ValueError(
                f"need {ends[-1] - GRADIENT_HEADER_BYTES} payload bytes for {width} coords "
                f"({'+'.join(map(str, planes[: len(ends) - 1]))} bits), "
                f"got {max(int(sizes_by[at][wrong].min()) - GRADIENT_HEADER_BYTES, 0)}"
            )
        store = (width, depth, placed)
        kept: List[Payload] = list(map(payloads.__getitem__, order[at].tolist()))
        # With the metadata packet, check_grid has already seen to both.
        if (
            not placed
            and 0 < width < n
            and (
                metadata is not None
                or not (lo_by[at] % n).any() and (end_by[at] == length).all()
            )
        ):
            store = (n, depth, True)
            wide = _plane_ends(planes, cuts, n, depth)
            kept = [_widen(payload, ends, wide) for payload in kept]
        offsets, stored = stores.setdefault(store, ([], []))
        offsets.append(lo_by[at])
        stored.extend(kept)

    size = length + n  # room for a widened final row
    heads, tails = codes = np.zeros((2, size), dtype=np.uint32)
    trimmed, covered = masks = np.zeros((2, size), dtype=bool)
    # Only a code of more than two planes has depths the masks cannot say.
    depth_plane = np.zeros(size, dtype=np.uint8) if layered else None

    # Invert each store's packed planes, shallowest depth first, so that of
    # two copies of a coordinate the deepest is kept whatever their order.
    cut = False
    for (width, depth, placed), (offsets, kept) in sorted(
        stores.items(), key=lambda store: store[0][1]
    ):
        los = offsets[0] if len(offsets) == 1 else np.concatenate(offsets)
        ends = _plane_ends(planes, cuts, width, depth)
        has_tails = len(ends) > 2
        if placed and width:
            # Packets where their chunk index puts them on their own
            # coord_count grid: view the planes as rows of `width`
            # coordinates and store whole rows, in row order; of two copies
            # of a row, the later.
            index = los // width
            if np.count_nonzero(index[1:] <= index[:-1]):
                pick = index.argsort(kind="stable")
                index = index[pick]
                last = np.append(index[1:] != index[:-1], True)
                index = index[last]
                kept = list(map(kept.__getitem__, pick[last].tolist()))
            grid = size - size % width
            head_rows, tail_rows = codes[:, :grid].reshape(2, -1, width)
            trimmed_rows, covered_rows = masks[:, :grid].reshape(2, -1, width)
            depth_rows = None if depth_plane is None else depth_plane[:grid].reshape(-1, width)
        else:
            # Hand-built packets: one index per coordinate.
            index = np.add.outer(los, np.arange(width))
            head_rows, tail_rows, trimmed_rows, covered_rows, depth_rows = (
                heads, tails, trimmed, covered, depth_plane
            )
        covered_rows[index] = True
        if depth != full:
            trimmed_rows[index] = cut = True
        elif cut:  # a full copy of a coordinate a shallower store marked trimmed
            trimmed_rows[index] = False
        if depth_rows is not None:
            depth_rows[index] = depth
        # A row group of packets at a time: their payloads joined are a
        # (packets, payload bytes) matrix whose column ranges are the
        # planes.  A run of consecutive rows is unpacked straight into its
        # rows of the planes, anything else scattered into them.
        for start in range(0, len(kept), ROW_GROUP):
            into = index[start : start + ROW_GROUP]
            batch = kept[start : start + ROW_GROUP]
            matrix = np.frombuffer(b"".join(batch), dtype=np.uint8).reshape(len(batch), ends[-1])
            head_cols = matrix[:, ends[0] : ends[1]]
            if placed and width and into[-1] - into[0] == len(into) - 1:
                run = slice(int(into[0]), int(into[-1]) + 1)
                unpack_batch(head_cols, width, planes[0], out=head_rows[run])
                if has_tails:
                    _unpack_tails(matrix, ends, width, planes, out=tail_rows[run])
            else:
                head_rows[into] = unpack_batch(head_cols, width, planes[0])
                if has_tails:
                    tail_rows[into] = _unpack_tails(matrix, ends, width, planes)

    heads, tails = codes[:, :length]
    trimmed, covered = masks[:, :length]
    if depth_plane is not None:
        depth_plane = depth_plane[:length]
    return GradientMessage(
        heads=heads,
        tails=tails,
        trimmed=trimmed,
        missing=~covered,
        metadata=metadata,
        codec_id=codec_id,
        head_bits=planes[0],
        tail_bits=full - planes[0],
        length=length,
        depth=depth_plane,
    )


@lru_cache(maxsize=64)
def _plane_ends(
    planes: Tuple[int, ...], cuts: Tuple[int, ...], count: int, arrived: int
) -> Tuple[int, ...]:
    """Byte offsets in a payload of ``count`` coordinates of the code
    ``planes`` (boundaries ``cuts``) cut to ``arrived`` bits: the header's
    end, then each kept plane's."""
    kept = planes[: cuts.index(arrived) + 1]
    return tuple(accumulate([GRADIENT_HEADER_BYTES] + [packed_size(count, b) for b in kept]))


def _short(payload: Payload) -> ValueError:
    """The error for a payload too short to hold a gradient header."""
    return ValueError(f"gradient header needs {GRADIENT_HEADER_BYTES} bytes, got {len(payload)}")


def _split_bits(head_bits: int, tail_bits: int) -> int:
    """A header's head / tail split as its bytes read in a little-endian
    word from :data:`~repro.packet.header.HEAD_BITS_AT` up."""
    return int.from_bytes(SPLIT_VIEW.pack(head_bits, tail_bits), "little")


def _stranger(first: Payload, other: Payload, cuts: Tuple[int, ...]) -> ValueError:
    """The error for a packet that is not of ``first``'s message (whose
    code's plane boundaries are ``cuts``): a bad magic, a disagreement
    with the first header, or a head / tail split off the boundaries."""
    a, b = GradientHeader.from_bytes(first), GradientHeader.from_bytes(other)
    if b.head_bits + b.tail_bits != cuts[-1] or any(
        getattr(a, name) != getattr(b, name) for name in _SHARED
    ):
        return _disagreement(first, other)
    return ValueError(
        f"head_bits {b.head_bits} is not a plane boundary of codec {b.codec_id}'s code {cuts}"
    )


def _unpack_tails(
    matrix: np.ndarray,
    ends: Sequence[int],
    count: int,
    planes: Tuple[int, ...],
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """The tail planes a batch of payloads carries (columns ``ends[1:]`` of
    ``matrix``), their bits concatenated, the first plane's highest; in
    ``out`` when given."""
    shift = sum(planes[1:])
    tail = None
    for i in range(1, len(ends) - 1):
        shift -= planes[i]
        part = unpack_batch(matrix[:, ends[i] : ends[i + 1]], count, planes[i], out=out)
        if shift:
            part <<= np.uint32(shift)
        if tail is None:
            tail, out = part, None
        else:
            tail |= part
    assert tail is not None
    return tail


def _widen(payload: Payload, ends: Sequence[int], wide: Sequence[int]) -> bytes:
    """``payload`` with each plane zero-padded from its ``ends`` columns to
    the ``wide`` ones of a full packet's (the header is kept as it is)."""
    parts: List[Payload] = [payload[: ends[0]]]
    for i in range(1, len(ends)):
        parts.append(payload[ends[i - 1] : ends[i]])
        parts.append(bytes((wide[i] - wide[i - 1]) - (ends[i] - ends[i - 1])))
    return b"".join(parts)


#: A received payload: owned bytes or a view into a message buffer.
Payload = Union[bytes, memoryview]


def check_grid(
    n: int, lo: np.ndarray, chunk: np.ndarray, count: np.ndarray, length: int
) -> None:
    """Raise ``ValueError`` unless the data packets tile one message's grid.

    ``packetize`` gives chunk ``k`` the coordinates ``[(k - 1)·n,
    min(k·n, length))``, ``n`` being a full packet's: every packet but the
    final chunk is in place with ``n`` coordinates, and the final chunk
    ends the message.  A header whose offset, count or chunk index changed
    in flight breaks this even where its payload's length still fits it.
    ``lo``, ``chunk`` and ``count`` are the ``coord_offset``,
    ``chunk_index`` and ``coord_count`` of the data packets that are not
    such full packets, and the first of them off the grid is named.  When
    no packet is in place (``n`` is 0), only copies of the final chunk
    arrived and the grid is unknown: the copies need only agree.
    """
    if n:
        off = lo != (chunk - 1) * n
    else:
        off = (lo != lo[0]) | (chunk != chunk[0])
    off = (off | (lo + count != length)).nonzero()[0]
    if off.size:
        at = off[0]
        raise ValueError(
            f"data packet {chunk[at]} covers coords [{lo[at]},{lo[at] + count[at]}), off the "
            f"message's grid of {n or count[at]}-coordinate packets over {length}"
        )


def _disagreement(first: Payload, other: Payload) -> ValueError:
    """The error for two headers of one set that name different messages."""
    a, b = GradientHeader.from_bytes(first), GradientHeader.from_bytes(other)
    differ = [name for name in _IDENTITY if getattr(a, name) != getattr(b, name)]
    return ValueError(
        "packets of two messages in one set: "
        + ", ".join(f"{name} {getattr(a, name)} != {getattr(b, name)}" for name in differ)
    )


#: The header fields every packet of one message shares, magic aside; a
#: cut moves bits from the tail to the head, so what the packets share of
#: those two is their sum.
_IDENTITY = ("version", "codec_id", "head_bits", "tail_bits", "message_id", "epoch", "seed")
_SHARED = ("version", "codec_id", "message_id", "epoch", "seed")


def _identity_bits(*names: str) -> np.ndarray:
    """The bits of a header's four little-endian 64-bit words that hold
    the magic and the ``names`` fields."""
    layout = SET_VIEW.fields
    assert layout is not None
    mask = np.zeros(GRADIENT_HEADER_BYTES, dtype=np.uint8)
    for name in ("magic", *names):
        field, at = layout[name][:2]
        mask[at : at + field.itemsize] = 0xFF
    return mask.view("<u8")


_IDENTITY_BITS = _identity_bits(*_SHARED)
_IDENTITY_AND_SPLIT_BITS = _identity_bits(*_SHARED, "head_bits", "tail_bits")


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
