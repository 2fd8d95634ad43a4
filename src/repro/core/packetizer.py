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
arrived), ready for the codec's decoder.  Each set it reads must be one
message; ``depacketize_many`` reads several sets, one message each.

Both directions run on the training hot path (once per gradient per
step), so they are vectorized over whole messages, and over every
message of a cluster wave at once (see docs/performance.md):

* ``packetize_many`` lays out the messages of one geometry in one
  contiguous buffer — every message's full chunks as the rows of one
  matrix, their short final chunks as the rows of another — writes the
  header block with one strided store (headers included, via the
  precompiled struct template), has
  :func:`~repro.packet.bitpack.pack_segments` pack each plane of all of
  them straight into its columns of those rows, and hands each packet a
  read-only zero-copy ``memoryview`` slice of it.  The header bytes in
  the buffer are the only header: a packet is one object.
  ``packetize`` is its one-message call.
* ``depacketize_many`` joins the headers of every set once and reads
  them as one array (:data:`~repro.packet.header.SET_VIEW`), decides
  whether every set is one message with one reduction over its columns
  a check (when one is not, ``_refuse`` reads the sets a packet at a
  time and says why), groups every set's arrived packets by geometry
  with one sort, and inverts the groups of one code
  and geometry across all sets with batched
  :func:`~repro.packet.bitpack.unpack_batch` calls over the joined
  payloads of a row group of packets, storing a group that lies on its
  own ``coord_count`` grid as whole rows (a run of consecutive rows
  straight into the planes, which the sets share, each a segment ending
  on its grid).  The short final chunk is zero-padded into a full row
  of the same group, so a clean message is one group, the clean
  messages of a wave one store, and each plane one kernel call per row
  group.  ``depacketize`` is its one-set call.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, chain
from typing import (
    Any, Dict, Iterable, Iterator, List, NoReturn, Optional, Sequence, Tuple, Union
)

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
    MAGIC,
    SET_VIEW,
    SPLIT_VIEW,
    GradientHeader,
    code_planes,
    pack_runs,
)
from ..packet.packet import DEFAULT_MTU_BYTES, Packet
from .codec import EncodedGradient, GradientCodec, codec_by_id
from .layout import coords_per_packet
from .metadata import GradientMetadata

__all__ = [
    "GradientMessage",
    "packetize",
    "packetize_many",
    "depacketize",
    "depacketize_many",
    "decode_packets",
    "decode_message",
]


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


#: One message to lay out: ``(encoded, src, dst, flow_id)``.
Outgoing = Tuple[EncodedGradient, str, str, int]


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
    packets in coordinate order.  A one-message :func:`packetize_many`.
    """
    return packetize_many([(enc, src, dst, flow_id)], mtu)[0]


def packetize_many(
    messages: Sequence[Outgoing], mtu: int = DEFAULT_MTU_BYTES
) -> List[List[Packet]]:
    """Serialize several encoded gradients at once, one packet list each.

    Every list is what :func:`packetize` makes of that message alone, and
    the packets are made in the order sequential calls make them, so their
    ids are the same.  Messages of one geometry (plane widths, packet
    size, chunk count, final chunk) share one buffer: their full chunks are
    the rows of one matrix and their final chunks the rows of another, so
    the header block is one strided store and each plane one
    :func:`~repro.packet.bitpack.pack_segments` call for all of them.  A
    message too big for the wire format fails, typed, before anything is
    packed.
    """
    # When INT is enabled, every packet carries a fixed-size telemetry
    # band, and FLAG_INT is baked into the headers before they are
    # serialized into the shared read-only buffer.
    capacity = int_capacity()
    int_flag = FLAG_INT if capacity is not None else 0

    batches: Dict[Tuple[Tuple[int, ...], int, int, int], List[int]] = {}
    for at, (enc, *_) in enumerate(messages):
        n_per_packet = coords_per_packet(mtu, enc.head_bits, enc.tail_bits)
        num_chunks = -(-enc.length // n_per_packet)
        full_chunks = max(num_chunks - 1, 0)  # the final chunk may be short
        # The largest values any header of this message carries.
        _header(enc, num_chunks, full_chunks * n_per_packet, n_per_packet, int_flag).check_fits()
        planes = code_planes(enc.codec_id, enc.head_bits, enc.tail_bits)
        last_count = enc.length - full_chunks * n_per_packet
        batches.setdefault((planes, n_per_packet, full_chunks, last_count), []).append(at)

    # Lay every payload out in one buffer a geometry; each packet's payload
    # is a read-only zero-copy view into it (owned bytes only appear again
    # when a switch trims — see Packet.cut).
    slots: Dict[int, Tuple[memoryview, range, slice]] = {}
    for (planes, n_per_packet, full_chunks, last_count), members in batches.items():
        encs = [messages[at][0] for at in members]
        sizes = [packed_size(n_per_packet, bits) for bits in planes]
        last_sizes = [packed_size(last_count, bits) for bits in planes]
        full_payload = GRADIENT_HEADER_BYTES + sum(sizes)
        last_payload = GRADIENT_HEADER_BYTES + sum(last_sizes)
        last_pos = full_payload * full_chunks * len(members)
        buf = bytearray(last_pos + last_payload * len(members))

        # Every chunk but a message's last has the same geometry, so their
        # payloads are the rows of a matrix over ``buf``, message after
        # message; the final chunks may be short, so their payloads are the
        # rows of a second matrix after it.  The header block is one strided
        # store (plus two header columns) and each plane is packed, a row
        # group at a time, straight into its columns of those rows (the
        # final chunks ride in the last row group: see ``pack_segments``).
        octets = np.frombuffer(buf, dtype=np.uint8)
        rows = octets[:last_pos].reshape(-1, full_payload)
        last_rows = octets[last_pos:].reshape(len(members), last_payload)
        pack_runs(
            [_header(enc, 1, 0, n_per_packet, int_flag) for enc in encs],
            rows[:, :GRADIENT_HEADER_BYTES],
            n_per_packet,
        )
        num_chunks = full_chunks + (last_count > 0)
        for row, enc in enumerate(encs):
            header = _header(enc, num_chunks, full_chunks * n_per_packet, last_count, int_flag)
            header.pack_into(buf, last_pos + row * last_payload)
        at, last_at = GRADIENT_HEADER_BYTES, GRADIENT_HEADER_BYTES
        for values, bits, size, last_size in zip(
            _stacked_planes(encs, planes), planes, sizes, last_sizes
        ):
            out = rows[:, at : at + size], last_rows[:, last_at : last_at + last_size]
            pack_segments(values, bits, n_per_packet, out=out)
            at, last_at = at + size, last_at + last_size

        views = memoryview(buf).toreadonly()
        span = full_chunks * full_payload
        for row, at in enumerate(members):
            last = last_pos + row * last_payload
            slots[at] = (
                views,
                range(row * span, (row + 1) * span, full_payload),
                slice(last, last + last_payload),
            )

    # One Packet a chunk after the metadata packet, fields by position
    # (src, dst, payload, priority, flow_id, seq): keyword construction is
    # dearer.
    tracer = get_tracer()
    wires = []
    for at, (enc, src, dst, flow_id) in enumerate(messages):
        views, full, last = slots[at]
        meta = enc.metadata
        meta_header = _header(enc, 0, 0, 0, FLAG_METADATA | int_flag)
        packets = [
            Packet(
                src=src,
                dst=dst,
                payload=meta_header.to_bytes() + meta.to_bytes(),
                priority=1,
                flow_id=flow_id,
                int_ext=INTExtension(capacity) if capacity is not None else None,
            )
        ]
        payloads = chain(
            (views[pos : pos + full.step] for pos in full), (views[last],) if enc.length else ()
        )
        if capacity is None:
            packets += [
                Packet(src, dst, payload, 0, flow_id, seq)
                for seq, payload in enumerate(payloads, 1)
            ]
        else:
            packets += [
                Packet(src, dst, payload, 0, flow_id, seq, int_ext=INTExtension(capacity))
                for seq, payload in enumerate(payloads, 1)
            ]
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
        wires.append(packets)
    return wires


def _header(
    enc: EncodedGradient, chunk_index: int, coord_offset: int, coord_count: int, flags: int
) -> GradientHeader:
    """The gradient header of one of ``enc``'s packets."""
    meta = enc.metadata
    return GradientHeader(
        enc.codec_id,
        enc.head_bits,
        enc.tail_bits,
        meta.message_id,
        meta.epoch,
        chunk_index,
        coord_offset,
        coord_count,
        meta.seed,
        1,
        flags,
    )


def _stacked_planes(
    encs: Sequence[EncodedGradient], planes: Tuple[int, ...]
) -> Iterator[np.ndarray]:
    """Each plane of ``encs`` (messages of one geometry) as a ``(messages,
    length)`` matrix, the heads first: one message's is a view of it."""
    per_message = [(enc.heads, *_split(enc.tails, planes[1:])) for enc in encs]
    for plane in zip(*per_message):
        yield plane[0][np.newaxis] if len(plane) == 1 else np.stack(plane)


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
    code; when two metadata packets differ; when the metadata packet's
    payload is too short or truncated; with the metadata packet in the
    set, when a data packet is off the message's grid; when a packet runs
    beyond ``length``; and when a payload is not exactly as long as its
    header's ``coord_count`` and arrived depth make it.  Of the first
    four, the first offending packet in arrival order is named; of the
    last three, the first in the order the packets' geometries first
    arrived (see :func:`_refuse`).  A one-set :func:`depacketize_many`.
    """
    return depacketize_many([packets], [length])[0]


def depacketize_many(
    sets: Sequence[Iterable[Packet]], lengths: Optional[Sequence[Optional[int]]] = None
) -> List[GradientMessage]:
    """Reassemble several received sets at once, one message each.

    Each set is read as :func:`depacketize` reads it alone (``lengths``
    has one entry a set: its ``length``); when a set is one that
    :func:`depacketize` refuses, this raises the ``ValueError`` it raises
    alone, for the first such set in order.  The sets' headers are joined
    once and read as one array, and each check is one reduction over its
    columns that says whether every set is one message; when one fails,
    :func:`_refuse` reads the sets a packet at a time and says why.  One
    stable sort groups every set's packets by geometry; and the groups of
    one code and geometry across all sets fill one store, unpacked a row
    group at a time into per-set views of shared planes: the clean
    messages of a cluster wave are one
    :func:`~repro.packet.bitpack.unpack_batch` call per plane.
    """
    payload_sets = [[pkt.payload for pkt in packets] for packets in sets]
    if not payload_sets:
        return []
    if lengths is None:
        lengths = [None] * len(payload_sets)
    elif len(lengths) != len(payload_sets):
        raise ValueError(f"{len(payload_sets)} packet sets but {len(lengths)} lengths")
    counts = [len(ps) for ps in payload_sets]
    bounds = list(accumulate([0] + counts))
    payloads = payload_sets[0] if len(counts) == 1 else list(chain.from_iterable(payload_sets))

    # The headers joined once are one record array, and the same bytes are
    # four 64-bit words a header.  An empty set or a payload too short for
    # a header is refused before they are read.
    joined = b"".join([payload[:GRADIENT_HEADER_BYTES] for payload in payloads])
    if not all(counts) or len(joined) != GRADIENT_HEADER_BYTES * len(payloads):
        _refuse(payload_sets, lengths)
    records = np.frombuffer(joined, dtype=SET_VIEW)
    words = np.frombuffer(joined, dtype="<u8").reshape(-1, 4)
    sizes = np.fromiter(map(len, payloads), dtype=np.int64, count=len(payloads))
    # Each set's code, as its first header names it.
    firsts = records[bounds[:-1]]
    if np.count_nonzero(firsts["magic"] != MAGIC):
        _refuse(payload_sets, lengths)
    codes = firsts[["codec_id", "head_bits", "tail_bits"]].tolist()
    named = [(codec_id, code_planes(codec_id, *split)) for codec_id, *split in codes]
    cuts_of = [tuple(accumulate(planes)) for _, planes in named]
    # A packet of a set's message has its first packet's identity bytes,
    # and its head / tail split is at a plane boundary of the code: for a
    # code of two planes, the first packet's split, which then counts as
    # identity.  One word column at a time (the third holds no identity).
    layered = [len(planes) > 2 for _, planes in named]
    leads = words[bounds[:-1]]
    leads = leads[0] if len(counts) == 1 else np.repeat(leads, counts, axis=0)
    for word, bits in enumerate(_IDENTITY_AND_SPLIT_BITS):
        if word == 0:
            bits = _per_row([_IDENTITY_BITS[0] if lay else bits for lay in layered], counts)
        elif not bits:
            continue
        if np.count_nonzero((words[:, word] ^ leads.T[word]) & bits):
            _refuse(payload_sets, lengths)
    if any(layered):
        split = words[:, 0] >> np.uint64(8 * HEAD_BITS_AT)
        for cuts in dict.fromkeys(cuts for cuts in cuts_of if len(cuts) > 2):
            off_boundary = split != _split_bits(cuts[0], cuts[-1] - cuts[0])
            for cut in cuts[1:-1]:
                off_boundary &= split != _split_bits(cut, cuts[-1] - cut)
            members = _per_row([code == cuts for code in cuts_of], counts)
            if np.count_nonzero(off_boundary & members):
                _refuse(payload_sets, lengths)
    # A set's metadata packets are byte-equal copies of its first one,
    # which parses.
    flags = records["flags"]
    metas = (flags & FLAG_METADATA).nonzero()[0].tolist()
    meta_of: Dict[int, Payload] = {}
    s = 0
    for at in metas:
        while at >= bounds[s + 1]:
            s += 1
        if meta_of.setdefault(s, payloads[at]) != payloads[at]:
            _refuse(payload_sets, lengths)
    try:
        metadata = [
            GradientMetadata.from_bytes(meta_of[s][GRADIENT_HEADER_BYTES:])
            if s in meta_of
            else None
            for s in range(len(counts))
        ]
    except ValueError:
        _refuse(payload_sets, lengths)

    # Data packets in groups of one set, coord_count, arrived depth and
    # whether the packet starts where its chunk index puts it on the grid
    # of its own coord_count (every packet but a message's final chunk
    # does), the groups in the order their first packet arrived and each's
    # packets in arrival order: one stable sort of a key a packet, the
    # metadata packets' lowest in their set (and dropped).
    lo = records["coord_offset"].astype(np.int64)
    count = records["coord_count"].astype(np.int64)
    chunk = records["chunk_index"].astype(np.int64)
    end = lo + count
    # A cut packet arrived at its head bits, any other at the full depth
    # (FLAG_TRIMMED is bit 0, so the flag is the factor).
    full = _per_row([cuts[-1] for cuts in cuts_of], counts)
    arrived = full - (full - records["head_bits"].astype(np.int64)) * (flags & FLAG_TRIMMED)
    key = count << 18 | arrived << 1 | (end == chunk * count)
    key[metas] = -1
    if len(counts) == 1:
        order = key.argsort(kind="stable")
    else:
        order = np.lexsort((key, np.repeat(np.arange(len(counts)), counts)))
    ranked = key[order]
    edges = ranked[1:] != ranked[:-1]
    edges[[at - 1 for at in bounds[1:-1]]] = True
    starts = [0, *(edges.nonzero()[0] + 1).tolist()]
    spans = sorted(
        zip(order[starts].tolist(), ranked[starts].tolist(), starts, starts[1:] + [len(payloads)])
    )
    # (set, coord_count, depth, in place, the group's slice of ``order``)
    groups: List[Tuple[int, int, int, bool, slice]] = []
    s = 0
    for first, k, start, stop in spans:
        while first >= bounds[s + 1]:
            s += 1
        if k >= 0:
            groups.append((s, k >> 18, k >> 1 & 0x1FFFF, bool(k & 1), slice(start, stop)))
    # What the groups' checks read, in that order: a group's is a slice.
    lo_by, end_by, size_by = lo[order], end[order], sizes[order]

    # A full packet's coord_count: the message's grid.  Its full packets
    # are in place; the rest must tile the message with them.
    grid = [0] * len(counts)
    for s, width, _, placed, _ in groups:
        if placed and width > grid[s]:
            grid[s] = width
    length_of = [
        given
        if given is not None
        else meta.encoded_length
        if meta is not None
        else int(end[bounds[s] : bounds[s + 1]].max())
        for s, (given, meta) in enumerate(zip(lengths, metadata))
    ]
    # Every data packet ends inside its message.  With the metadata packet,
    # every data packet is on the grid (chunk k covers
    # [(k - 1)·n, min(k·n, length))), and each but the full ones ends the
    # message; with no full packet in place the grid is unknown, only
    # copies of the final chunk arrived, and they agree.
    grids, limit, data = _per_row(grid, counts), _per_row(length_of, counts), key >= 0
    off = (lo != (chunk - 1) * grids) | ((count != grids) & (end != limit))
    checked = data & (grids > 0) & _per_row([meta is not None for meta in metadata], counts)
    if np.count_nonzero(off & checked | (end > limit) & data):
        _refuse(payload_sets, lengths)
    for s, meta in enumerate(metadata):
        if meta is None or grid[s]:
            continue
        copies = bounds[s] + (key[bounds[s] : bounds[s + 1]] >= 0).nonzero()[0]
        if copies.size and (
            np.ptp(lo[copies]) or np.ptp(chunk[copies]) or np.any(end[copies] != length_of[s])
        ):
            _refuse(payload_sets, lengths)

    # Every data packet's payload is the size its group's geometry gives:
    # one comparison against per-row sizes in ``order`` (a metadata row's
    # is its own).
    ends_of = [_plane_ends(named[s][1], cuts_of[s], w, depth) for s, w, depth, _, _ in groups]
    for group, ends in zip(groups, ends_of):
        size_by[group[4]] = ends[-1]
    if np.count_nonzero(size_by != sizes[order]):
        _refuse(payload_sets, lengths)

    # Each group filed by store: a short packet that starts on the grid and
    # ends the message (the final chunk) is widened to a zero-padded full
    # row and joins the full packets of its depth, so a clean message is
    # one store, and so are the clean messages of one code and geometry.
    # A set keeps the order of its stores of one depth (their ``rank``).
    bases = list(accumulate([0] + [_segment(*sized) for sized in zip(length_of[:-1], grid)]))
    stores: Dict[Tuple[Any, ...], Tuple[List[np.ndarray], List[Payload], List[int]]] = {}
    ranks: Dict[Tuple[int, int], List[Tuple[int, int, bool]]] = {}
    for (s, width, depth, placed, at), ends in zip(groups, ends_of):
        planes, cuts, length, n = named[s][1], cuts_of[s], length_of[s], grid[s]
        lo_at, end_at = lo_by[at], end_by[at]
        store = (width, depth, placed)
        kept: List[Payload] = list(map(payloads.__getitem__, order[at].tolist()))
        # With the metadata packet, the grid check above has seen to both.
        if (
            not placed
            and 0 < width < n
            and (metadata[s] is not None or not (lo_at % n).any() and (end_at == length).all())
        ):
            store = (n, depth, True)
            wide = _plane_ends(planes, cuts, n, depth)
            kept = [_widen(payload, ends, wide) for payload in kept]
        rank = ranks.setdefault((s, depth), [])
        if store not in rank:
            rank.append(store)
        filed = (planes, rank.index(store), *store)
        offsets, stored, members = stores.setdefault(filed, ([], [], []))
        offsets.append(lo_at + bases[s] if bases[s] else lo_at)
        stored.extend(kept)
        members.append(s)

    # The sets' planes one after another, each set's segment ending on its
    # grid (the last one's with room for a widened final row), so the rows
    # of a store run on from one set into the next.
    size = bases[-1] + length_of[-1] + grid[-1]
    heads, tails = planes_of = np.zeros((2, size), dtype=np.uint32)
    trimmed, covered = masks = np.zeros((2, size), dtype=bool)
    # Only a code of more than two planes has depths the masks cannot say.
    depth_plane = np.zeros(size, dtype=np.uint8) if any(layered) else None

    # Invert each store's packed planes, shallowest depth first, so that of
    # two copies of a coordinate the deepest is kept whatever their order.
    cut = False
    for (planes, _, width, depth, placed), (offsets, kept, members) in sorted(
        stores.items(), key=lambda store: (store[0][3], store[0][1])
    ):
        los = offsets[0] if len(offsets) == 1 else np.concatenate(offsets)
        ends = _plane_ends(planes, tuple(accumulate(planes)), width, depth)
        has_tails = len(ends) > 2
        in_rows = placed and width and all(bases[s] % width == 0 for s in members)
        if in_rows:
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
            rows = size - size % width
            head_rows, tail_rows = planes_of[:, :rows].reshape(2, -1, width)
            trimmed_rows, covered_rows = masks[:, :rows].reshape(2, -1, width)
            depth_rows = None if depth_plane is None else depth_plane[:rows].reshape(-1, width)
        else:
            # Hand-built packets: one index per coordinate.
            index = np.add.outer(los, np.arange(width))
            head_rows, tail_rows, trimmed_rows, covered_rows, depth_rows = (
                heads, tails, trimmed, covered, depth_plane
            )
        covered_rows[index] = True
        if depth != sum(planes):
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
            if in_rows and into[-1] - into[0] == len(into) - 1:
                run = slice(int(into[0]), int(into[-1]) + 1)
                unpack_batch(head_cols, width, planes[0], out=head_rows[run])
                if has_tails:
                    _unpack_tails(matrix, ends, width, planes, out=tail_rows[run])
            else:
                head_rows[into] = unpack_batch(head_cols, width, planes[0])
                if has_tails:
                    tail_rows[into] = _unpack_tails(matrix, ends, width, planes)

    missing = ~covered[: bases[-1] + length_of[-1]]
    messages = []
    for (codec_id, planes), base, length, meta in zip(named, bases, length_of, metadata):
        span = slice(base, base + length)
        messages.append(
            GradientMessage(
                heads=heads[span],
                tails=tails[span],
                trimmed=trimmed[span],
                missing=missing[span],
                metadata=meta,
                codec_id=codec_id,
                head_bits=planes[0],
                tail_bits=sum(planes) - planes[0],
                length=length,
                depth=None if depth_plane is None or len(planes) == 2 else depth_plane[span],
            )
        )
    return messages


def _per_row(values: List[Any], counts: Sequence[int]) -> Any:
    """``values``, one a set, as one a packet of sets of ``counts``
    packets: the value itself when every set has the same."""
    if all(value == values[0] for value in values):
        return values[0]
    return np.repeat(np.asarray(values), counts)


def _refuse(payload_sets: List[List[Payload]], lengths: Sequence[Optional[int]]) -> NoReturn:
    """Raise the ``ValueError`` :func:`depacketize` raises for the first
    of ``payload_sets`` it refuses (``lengths``: one ``length`` a set).

    Each set is read a packet at a time, in arrival order: every header
    must parse and name the first one's message, with its head / tail
    split on a plane boundary, and every metadata packet must be a copy
    of the first.  Then the metadata parses, and each geometry's packets
    (in the order the geometries first arrived) must, with the metadata
    packet, lie on the message's grid (chunk ``k`` covers ``[(k - 1)·n,
    min(k·n, length))``, ``n`` a full packet's; with no full packet in
    place, only copies of the final chunk arrived and they need only
    agree), and must lie within ``length`` and be as long as their
    headers make them.  :func:`depacketize_many` calls this when one of
    its array checks fails, and none of them is stricter than these.
    """
    for payloads, length in zip(payload_sets, lengths):
        if not payloads:
            raise ValueError("no gradient packets to depacketize")
        first = GradientHeader.from_bytes(payloads[0])
        planes = code_planes(first.codec_id, first.head_bits, first.tail_bits)
        cuts = tuple(accumulate(planes))
        meta: Optional[Payload] = None
        groups: Dict[Tuple[int, int, bool], List[Tuple[int, int, int]]] = {}
        for payload in payloads:
            header = GradientHeader.from_bytes(payload)
            head, lo, count, chunk = (
                header.head_bits, header.coord_offset, header.coord_count, header.chunk_index
            )
            if head + header.tail_bits != cuts[-1] or any(
                getattr(header, name) != getattr(first, name) for name in _SHARED
            ):
                raise _disagreement(payloads[0], payload)
            if head not in cuts[:-1]:
                raise ValueError(
                    f"head_bits {head} is not a plane boundary of codec {first.codec_id}'s "
                    f"code {cuts}"
                )
            if not header.flags & FLAG_METADATA:
                depth = head if header.flags & FLAG_TRIMMED else cuts[-1]
                placed = lo == (chunk - 1) * count
                groups.setdefault((count, depth, placed), []).append((lo, chunk, len(payload)))
            elif meta is None:
                meta = payload
            elif payload != meta:
                raise ValueError("two different metadata packets in one message")
        if meta is not None:
            encoded = GradientMetadata.from_bytes(meta[GRADIENT_HEADER_BYTES:]).encoded_length
            length = encoded if length is None else length
        elif length is None:
            reach = [lo + count for (count, _, _), data in groups.items() for lo, _, _ in data]
            length = max(reach, default=0)
        n = max((count for count, _, placed in groups if placed and count), default=0)
        final: Optional[Tuple[int, int]] = None
        for (count, _, placed), members in groups.items() if meta is not None else ():
            for lo, chunk, _ in [] if placed and count == n and n else members:
                final = final or (lo, chunk)
                if (lo != (chunk - 1) * n if n else (lo, chunk) != final) or lo + count != length:
                    raise ValueError(
                        f"data packet {chunk} covers coords [{lo},{lo + count}), off the "
                        f"message's grid of {n or count}-coordinate packets over {length}"
                    )
        for (count, depth, _), members in groups.items():
            ends = _plane_ends(planes, cuts, count, depth)
            top = max(lo for lo, _, _ in members)
            if top + count > length:
                raise ValueError(
                    f"packet covers coords [{top},{top + count}) beyond length {length}"
                )
            wrong = {size for _, _, size in members} - {ends[-1]}
            if wrong:
                raise ValueError(
                    f"need {ends[-1] - GRADIENT_HEADER_BYTES} payload bytes for {count} coords "
                    f"({'+'.join(map(str, planes[: len(ends) - 1]))} bits), "
                    f"got {max(min(wrong) - GRADIENT_HEADER_BYTES, 0)}"
                )
    raise AssertionError("depacketize_many's array checks refused sets depacketize reads")


def _segment(length: int, grid: int) -> int:
    """A set's share of the shared planes: its ``length`` rounded up to its
    ``grid`` (a widened final row ends there)."""
    return -(-length // grid) * grid if grid else length


@lru_cache(maxsize=64)
def _plane_ends(
    planes: Tuple[int, ...], cuts: Tuple[int, ...], count: int, arrived: int
) -> Tuple[int, ...]:
    """Byte offsets in a payload of ``count`` coordinates of the code
    ``planes`` (boundaries ``cuts``) cut to ``arrived`` bits: the header's
    end, then each kept plane's."""
    kept = planes[: cuts.index(arrived) + 1]
    return tuple(accumulate([GRADIENT_HEADER_BYTES] + [packed_size(count, b) for b in kept]))


def _split_bits(head_bits: int, tail_bits: int) -> int:
    """A header's head / tail split as its bytes read in a little-endian
    word from :data:`~repro.packet.header.HEAD_BITS_AT` up."""
    return int.from_bytes(SPLIT_VIEW.pack(head_bits, tail_bits), "little")


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
    return decode_message(depacketize(packets, length=length), packets, codec, start)


def decode_message(
    message: GradientMessage,
    packets: Sequence[Packet],
    codec: Optional[GradientCodec] = None,
    start: Optional[float] = None,
) -> np.ndarray:
    """Codec-decode ``message``, what :func:`depacketize_many` made of
    ``packets``: the rest of :func:`decode_packets` for a set read with
    others.  ``start`` is when the receive path began (now by default)."""
    if start is None:
        start = time.perf_counter()
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
