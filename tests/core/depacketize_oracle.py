"""``depacketize``'s per-packet header loop: the reference the array pass is held to.

This is ``repro.core.packetizer.depacketize`` as it stood from PR 26 to
PR 41, moved here unchanged but for its name when the header loop gave
way to one numpy pass over the joined headers: one ``struct`` call a
packet, the message's identity as three byte strings compared with those
already accepted, the data packets grouped in a dict as they come, and
every group's planes scattered into the message through a fancy index.
Its errors are the words and the order the array pass must keep: for a
set with several faults, the first offending packet in arrival order is
the one named.  It shares the containers (``GradientMessage``,
``GradientMetadata``, ``GradientHeader``) and the row kernels with the
package and nothing else.
"""

from __future__ import annotations

import struct
from itertools import accumulate
from typing import Dict, Iterable, List, Optional, Tuple, Union

import numpy as np

from repro.core.metadata import GradientMetadata
from repro.core.packetizer import GradientMessage
from repro.packet import Packet
from repro.packet.bitpack import ROW_GROUP, packed_size, unpack_batch
from repro.packet.header import (
    FLAG_METADATA,
    FLAG_TRIMMED,
    GRADIENT_HEADER_BYTES,
    GradientHeader,
    code_planes,
)

#: What a receiver read of every packet of a set: ``(magic + version,
#: flags, codec_id … epoch, chunk_index, coord_offset, coord_count, seed)``.
SET_VIEW = struct.Struct(">3sB10sHII8s")


def loop_depacketize(packets: Iterable[Packet], length: Optional[int] = None) -> GradientMessage:
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
