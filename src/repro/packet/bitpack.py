"""Bit-level packing for P-bit gradient heads.

The trimmable layout (paper Section 2) stores one ``P``-bit head per
coordinate densely at the front of the payload.  This module packs and
unpacks arrays of small unsigned integers to/from bytes, MSB-first within
each byte (network order), for any ``1 <= bits <= 32``.

Two layers are exposed:

* the scalar-plane API (:func:`unpack_bits` / :func:`unpack_signs`)
  unpacks one flat array; the row kernels under it pack one.  Widths
  ``1``, ``8``, ``16`` and ``32`` are ``np.packbits`` on the raw values
  or big-endian byte/word views; every other width — the paper's
  ``Q = 31`` tail plane first of all — goes through a word-level kernel
  that assembles each block of 8 values (exactly ``bits`` bytes) in
  ``uint64`` words with one or two shifts per value.
* the whole-message API (:func:`pack_segments` / :func:`unpack_batch`)
  packs or unpacks *the packets of a message as the rows of a matrix*,
  a row group (``ROW_GROUP`` packets) per numpy call so the kernel's
  temporaries stay in cache.  :func:`pack_segments` splits a plane into
  byte-aligned per-packet segments, in one contiguous buffer or straight
  into the rows of the packetizer's message buffer; :func:`unpack_batch`
  inverts a batch of same-geometry packet bodies at once.

No width expands values to one slot per bit.  The per-bit formulation
lives in ``tests/packet/bitpack_oracle.py`` as the reference every width
is compared against, byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence, Union

import numpy as np

__all__ = [
    "packed_size",
    "unpack_bits",
    "unpack_signs",
    "PackedSegments",
    "pack_segments",
    "unpack_batch",
]

#: Bit widths with a dedicated vectorized fast path.
FAST_WIDTHS = (1, 8, 16, 32)

ByteLike = Union[bytes, bytearray, memoryview]


def packed_size(count: int, bits: int) -> int:
    """Bytes needed to store ``count`` values of ``bits`` bits each."""
    _check_bits(bits)
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    return -(-count * bits // 8)  # ceil(count*bits / 8)


def _check_bits(bits: int) -> None:
    if not 1 <= bits <= 32:
        raise ValueError(f"bits must be in [1, 32], got {bits}")


def _check_range(values: np.ndarray, bits: int) -> None:
    top = int(np.maximum.reduce(values, axis=None)) if values.size else 0
    if top >= (1 << bits):
        raise ValueError(f"value {top} does not fit in {bits} bits")


# -- batched row kernels ------------------------------------------------------
#
# Everything below funnels through these two: pack/unpack a (rows, count)
# matrix where every row is packed independently to a byte boundary.  A
# single flat array is the rows=1 case; a message's packets are the rows.

#: Rows (packets) packed or unpacked at a time.  A group's temporaries —
#: for 356 x 31-bit rows about 370 kB of lanes and 180 kB each of words
#: and wire bytes — stay in cache between the kernel's passes, where a
#: whole 2,947-packet plane (20 MB of them) streams from memory on every
#: pass.  Measured on that plane (numpy 2.4.6, 4 MB L2): pack 7.4 ms whole,
#: 4.2 / 3.4 / 3.1 / 3.4 / 3.6 / 3.8 ms at 32 / 64 / 128 / 256 / 512 /
#: 1024 rows; unpack 5.8 ms whole, 4.2 / 3.0 / 2.9 / 3.1 / 3.7 / 4.7 ms.
ROW_GROUP = 128


def _pack_rows(
    values: np.ndarray,
    bits: int,
    out: Optional[np.ndarray] = None,
    short: Optional[tuple[np.ndarray, np.ndarray]] = None,
) -> np.ndarray:
    """Pack a ``(rows, count)`` uint matrix row-by-row into packed bytes.

    Fills (and returns) ``out``, a ``(rows, packed_size(count, bits))``
    uint8 matrix of any strides — a fresh one when omitted — ``ROW_GROUP``
    rows at a time; each row is byte-aligned independently (trailing pad
    bits are zero).  ``short``, a pair ``(values, out)`` of 2-D arrays, is
    more rows of fewer than ``count`` values each, packed into their own
    ``packed_size(values.shape[1], bits)`` bytes: they ride in the last
    row group, zero-padded to ``count`` (whose packed bytes start with
    their own), so the short final packets of a message, or of a wave's
    messages, cost no call of their own.
    """
    rows, count = values.shape
    if out is None:
        out = np.empty((rows, packed_size(count, bits)), dtype=np.uint8)
    if count == 0:
        return out
    starts = range(0, rows + (short is not None), ROW_GROUP)
    for start in starts:
        group = values[start : start + ROW_GROUP]
        packed = out[start : start + ROW_GROUP]
        if short is not None and start == starts[-1]:
            short_values, short_out = short
            staged = np.zeros((len(group) + len(short_values), count), dtype=values.dtype)
            staged[: len(group)] = group
            staged[len(group) :, : short_values.shape[1]] = short_values
            wide = _pack_group(staged, bits)
            packed[...] = wide[: len(group)]
            short_out[...] = wide[len(group) :, : short_out.shape[1]]
        else:
            _pack_group(group, bits, packed)
    return out


def _pack_group(values: np.ndarray, bits: int, out: Optional[np.ndarray] = None) -> np.ndarray:
    """One row group of :func:`_pack_rows`, into ``out`` (a fresh matrix when omitted)."""
    if out is None:
        out = np.empty((len(values), packed_size(values.shape[1], bits)), dtype=np.uint8)
    if bits == 1:
        out[...] = np.packbits(values.astype(np.uint8), axis=1)
    elif bits == 8:
        out[...] = values
    elif bits in (16, 32):
        wide = np.ascontiguousarray(values.astype(f">u{bits // 8}"))
        out[...] = wide.view(np.uint8).reshape(out.shape)
    else:
        _pack_blocks(values, bits, out)
    return out


@dataclass(frozen=True)
class _LanePlan:
    """Where :func:`_unpack_blocks` finds each of a block's eight
    ``bits``-wide lanes in its ``ceil(bits / 8)`` big-endian ``uint64``
    words.

    Lane ``i`` ends ``low[i]`` bits above the bottom of the word that
    holds its last bit; ``low`` is a read-only ``(8, 1, 1)`` array, so
    the lanes ending in one word shift out of it in one broadcast call.
    Those lanes are consecutive: word ``w`` is ``words[w] = (first, stop,
    carry)`` for lanes ``first .. stop - 1``, where a nonzero ``carry``
    says that lane ``first`` starts in the word before and is the number
    of its bits in word ``w`` (its high bits sit at the bottom of the
    word before).
    """

    low: np.ndarray
    words: tuple[tuple[int, int, np.uint64], ...]


@lru_cache(maxsize=None)
def _lane_plan(bits: int) -> _LanePlan:
    ends = [(i + 1) * bits for i in range(8)]
    word = [(end - 1) // 64 for end in ends]
    low = np.array([64 * (w + 1) - end for w, end in zip(word, ends)], dtype=np.uint64)
    low.setflags(write=False)
    words = []
    for w in range(word[-1] + 1):
        first, stop = word.index(w), len(word) - word[::-1].index(w)
        straddles = first * bits < 64 * w
        words.append((first, stop, np.uint64(ends[first] - 64 * w if straddles else 0)))
    return _LanePlan(low=low[:, None, None], words=tuple(words))


def _pack_blocks(values: np.ndarray, bits: int, out: np.ndarray) -> None:
    """One row group of :func:`_pack_rows` for the widths without a byte/word view.

    Eight ``bits``-wide values fill exactly ``bits`` bytes, so a row is a
    sequence of such blocks.  The group is first dealt into eight
    contiguous ``uint64`` lanes — lane ``i`` holds value ``i`` of every
    block, zero where a short final block has none — so every pass below
    is a flat array.  Each block is assembled in ``ceil(bits / 8)``
    big-endian ``uint64`` words: lane ``i`` ends at bit ``(i + 1) * bits``
    of the block and is shifted into the word holding that bit (stored,
    for the first lane to reach a word, OR-ed after), plus the word
    before when it straddles a boundary.  The loop runs 8 times whatever
    the group size; the blocks are byte-swapped once and stored straight
    into ``out``.
    """
    rows, count = values.shape
    blocks = -(-count // 8)
    words_per_block = -(-bits // 8)
    block_bytes = packed_size(8, bits)  # 8 values x `bits` bits: exactly `bits` bytes
    lanes = np.empty((8, rows, blocks), dtype=np.uint64)
    dealt = lanes.transpose(1, 2, 0)  # (rows, blocks, 8): the values' own order
    full, short = divmod(count, 8)
    dealt[:, :full] = values[:, : 8 * full].reshape(rows, full, 8)
    if short:
        dealt[:, full, :short] = values[:, 8 * full :]
        dealt[:, full, short:] = 0
    words = np.empty((words_per_block, rows, blocks), dtype=np.uint64)
    shifted = np.empty((rows, blocks), dtype=np.uint64)
    for i, lane in enumerate(lanes):
        end = (i + 1) * bits
        last = (end - 1) // 64
        if 64 * last >= i * bits:  # the first lane to reach this word
            np.left_shift(lane, np.uint64(64 * (last + 1) - end), out=words[last])
        else:
            np.left_shift(lane, np.uint64(64 * (last + 1) - end), out=shifted)
            words[last] |= shifted
        if i * bits < 64 * last:  # the value's high bits sit in the previous word
            np.right_shift(lane, np.uint64(end - 64 * last), out=shifted)
            words[last - 1] |= shifted
    wire = np.empty((rows, blocks, words_per_block), dtype=">u8")
    wire[...] = words.transpose(1, 2, 0)  # one byte swap for the whole group
    octets = wire.view(np.uint8).reshape(rows, blocks, 8 * words_per_block)
    need = packed_size(count, bits)
    whole = need // block_bytes
    # Splitting the last axis of a slice is a view, whatever ``out``'s strides.
    whole_blocks = out[:, : whole * block_bytes].reshape(rows, whole, block_bytes)
    whole_blocks[...] = octets[:, :whole, :block_bytes]
    if whole < blocks:  # short final block
        out[:, whole * block_bytes :] = octets[:, whole, : need - whole * block_bytes]


def _unpack_rows(
    data: np.ndarray, count: int, bits: int, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Inverse of :func:`_pack_rows`: ``(rows, bytes)`` -> ``(rows, count)``.

    ``data`` may carry trailing bytes beyond the packed width; they are
    ignored.  Returns uint32 values, in ``out`` (a ``(rows, count)`` uint32
    matrix of any strides) when given.
    """
    rows = data.shape[0]
    if bits not in FAST_WIDTHS and count:
        return _unpack_blocks(data, count, bits, out)
    if out is None:
        out = np.empty((rows, count), dtype=np.uint32)
    if count == 0:
        return out
    if bits == 1:
        out[...] = np.unpackbits(data, axis=1, count=count)
    elif bits == 8:
        out[...] = data[:, :count]
    else:
        raw = np.ascontiguousarray(data[:, : bits // 8 * count])
        out[...] = raw.view(f">u{bits // 8}")
    return out


def _unpack_blocks(
    data: np.ndarray, count: int, bits: int, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Inverse of :func:`_pack_blocks`: the lanes ending in a word are
    shifted down out of it in one call and masked into the output in
    another, a straddling lane's high bits OR-ed in between."""
    rows = data.shape[0]
    plan = _lane_plan(bits)
    blocks = -(-count // 8)
    words_per_block = -(-bits // 8)
    block_bytes = packed_size(8, bits)  # 8 values x `bits` bits: exactly `bits` bytes
    need = packed_size(count, bits)
    whole = need // block_bytes
    octets = np.zeros((rows, blocks, 8 * words_per_block), dtype=np.uint8)
    octets[:, :whole, :block_bytes] = data[:, : whole * block_bytes].reshape(
        rows, whole, block_bytes
    )
    if whole < blocks:  # short final block
        octets[:, whole, : need - whole * block_bytes] = data[:, whole * block_bytes : need]
    words = np.empty((words_per_block, rows, blocks), dtype=np.uint64)
    words[...] = octets.view(">u8").transpose(2, 0, 1)  # one byte swap for the whole plane
    # Whole blocks out, so every pass below runs over full (rows, blocks)
    # arrays: straight into ``out`` when its rows are whole blocks of
    # contiguous values, else into a scratch whose first `count` columns
    # are copied over.
    if out is not None and count % 8 == 0 and out.strides[1] == out.itemsize:
        wide = out
    else:
        wide = np.empty((rows, 8 * blocks), dtype=np.uint32)
    # Splitting the last axis of a matrix with unit column stride is a view.
    lanes = wide.reshape(rows, blocks, 8).transpose(2, 0, 1)
    mask = np.uint64((1 << bits) - 1)
    value = np.empty((max(stop - first for first, stop, _ in plan.words), rows, blocks), np.uint64)
    high = np.empty((rows, blocks), dtype=np.uint64)
    for word, (first, stop, carry) in enumerate(plan.words):
        ends_here = value[: stop - first]
        np.right_shift(words[word], plan.low[first:stop], out=ends_here)
        if carry:  # lane `first`'s high bits sit at the bottom of the word before
            np.left_shift(words[word - 1], carry, out=high)
            ends_here[0] |= high
        np.bitwise_and(ends_here, mask, out=lanes[first:stop])
    if out is None:
        return wide[:, :count]
    if wide is not out:
        out[...] = wide[:, :count]
    return out


# -- scalar-plane API ---------------------------------------------------------


def unpack_bits(data: ByteLike, count: int, bits: int) -> np.ndarray:
    """Unpack ``count`` MSB-first values of width ``bits`` (one packed
    segment of :func:`pack_segments`); returns them as uint32."""
    _check_bits(bits)
    need = packed_size(count, bits)
    if len(data) < need:
        raise ValueError(f"need {need} bytes to unpack {count}x{bits}-bit, got {len(data)}")
    if count == 0:
        return np.zeros(0, dtype=np.uint32)
    raw = np.frombuffer(data, dtype=np.uint8, count=need).reshape(1, need)
    return _unpack_rows(raw, count, bits)[0]


# -- whole-message API --------------------------------------------------------


@dataclass(frozen=True)
class PackedSegments:
    """One bit plane packed as byte-aligned per-packet segments.

    Attributes:
        buffer: the contiguous packed plane.  Segment ``i`` starts at byte
            ``i * seg_bytes``; the final (possibly partial) segment is
            shorter, and any bytes past it are zero padding.
        bits: value width the plane was packed with.
        segment_len: coordinates per full segment.
        total: total number of packed coordinates.
    """

    buffer: bytes
    bits: int
    segment_len: int
    total: int

    @property
    def seg_bytes(self) -> int:
        """Packed bytes of one full segment."""
        return packed_size(self.segment_len, self.bits)

    @property
    def num_segments(self) -> int:
        """Number of segments (the last one may be partial)."""
        if self.total == 0:
            return 0
        return -(-self.total // self.segment_len)

    def segment_count(self, i: int) -> int:
        """Coordinates carried by segment ``i``."""
        if not 0 <= i < self.num_segments:
            raise IndexError(f"segment {i} out of range [0, {self.num_segments})")
        return min(self.segment_len, self.total - i * self.segment_len)

    def segment(self, i: int) -> memoryview:
        """Zero-copy view of segment ``i``'s packed bytes."""
        start = i * self.seg_bytes
        end = start + packed_size(self.segment_count(i), self.bits)
        return memoryview(self.buffer)[start:end]


def pack_segments(
    values: np.ndarray,
    bits: int,
    segment_len: int,
    out: Optional[tuple[np.ndarray, np.ndarray]] = None,
) -> PackedSegments:
    """Pack a whole plane into byte-aligned per-packet segments at once.

    Each segment is one ``segment_len`` slice of ``values`` packed
    MSB-first and padded to a byte boundary, computed as batched numpy
    calls over row groups of segments: the full segments are the rows of
    one matrix, and the final (possibly partial) one rides zero-padded in
    their last row group (:func:`_pack_rows`), so a plane of at most
    ``ROW_GROUP`` segments is one call of the row kernel.

    ``out`` names where the segments go instead of a new buffer, as the
    pair ``(full, last)`` of writable uint8 arrays (any strides): row ``i``
    of ``full`` receives segment ``i`` and the 1-D ``last`` receives the
    final segment's ``packed_size(segment_count(-1), bits)`` bytes —
    ``packetize`` passes the columns of its message buffer.  The returned
    ``buffer`` is then empty.  Nothing is written if a value is out of
    range or a destination has the wrong shape.

    ``values`` may also be a ``(messages, length)`` matrix, one message's
    plane a row, all cut into the same segments; ``out`` is then required:
    ``full`` takes every message's full segments, the first message's
    first, and ``last`` is a ``(messages, bytes)`` matrix of their final
    segments (``packetize_many`` packs a wave's messages of one geometry
    this way, one row-kernel call per row group for all of them).
    """
    _check_bits(bits)
    if segment_len <= 0:
        raise ValueError(f"segment_len must be positive, got {segment_len}")
    # An unsigned plane is packed in its own dtype (the codecs emit uint32:
    # no 8-byte-per-value copy); anything else goes through uint64, which is
    # where a negative value turns into one that fails the range check.
    if not (isinstance(values, np.ndarray) and values.dtype.kind == "u"):
        values = np.asarray(values, dtype=np.uint64)
    stacked = values.ndim == 2
    if stacked and out is None:
        raise ValueError("a (messages, length) matrix of planes needs out=")
    planes = values if stacked else values.reshape(1, -1)
    _check_range(planes, bits)
    messages, total = planes.shape
    packed = None
    if total:
        full_segments = (total - 1) // segment_len  # the final segment may be short
        split = full_segments * segment_len
        seg_bytes = packed_size(segment_len, bits)
        last_bytes = packed_size(total - split, bits)
        shapes = (
            (messages * full_segments, seg_bytes),
            (messages, last_bytes) if stacked else (last_bytes,),
        )
        if out is None:
            packed = np.zeros((full_segments + 1, seg_bytes), dtype=np.uint8)
            out = packed[:-1], packed[-1, :last_bytes]
        full, last = out
        if (full.shape, last.shape) != shapes:
            raise ValueError(f"out must have shapes {shapes}, got {(full.shape, last.shape)}")
        short = planes[:, split:], last if stacked else last[np.newaxis]
        _pack_rows(planes[:, :split].reshape(-1, segment_len), bits, full, short)
    buffer = b"" if packed is None else packed.tobytes()
    return PackedSegments(buffer=buffer, bits=bits, segment_len=segment_len, total=total)


def unpack_batch(
    chunks: Union[Sequence[ByteLike], np.ndarray],
    count: int,
    bits: int,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Unpack many same-geometry packed planes in one batched call.

    Every chunk must hold exactly ``packed_size(count, bits)`` bytes (the
    packed plane of one packet); ``chunks`` is a sequence of buffers or a
    ``(packets, packed_size(count, bits))`` uint8 matrix of any row stride
    (``depacketize`` passes the plane's columns of a batch of payloads).
    Returns a ``(len(chunks), count)`` uint32 matrix.  This is the
    receive-side twin of :func:`pack_segments`: ``depacketize`` groups
    arrived packets by geometry and inverts each group here,
    ``ROW_GROUP`` packets a call, instead of per packet.

    ``out`` names where the values go instead of a new matrix: a writable
    ``(len(chunks), count)`` uint32 array of any strides — ``depacketize``
    passes a run of consecutive rows of its planes — which is returned.
    """
    _check_bits(bits)
    need = packed_size(count, bits)
    if isinstance(chunks, np.ndarray):
        if chunks.ndim != 2 or chunks.shape[1] != need or chunks.dtype != np.uint8:
            raise ValueError(
                f"need a (packets, {need}) uint8 matrix to unpack {count}x{bits}-bit, "
                f"got {chunks.shape} {chunks.dtype}"
            )
        raw = chunks
    else:
        for chunk in chunks:
            if len(chunk) != need:
                raise ValueError(
                    f"need exactly {need} bytes per chunk to unpack {count}x{bits}-bit, "
                    f"got {len(chunk)}"
                )
        # bytes.join accepts any buffer, memoryviews included
        raw = np.frombuffer(b"".join(chunks), dtype=np.uint8).reshape(len(chunks), need)
    if out is not None and (out.shape != (len(raw), count) or out.dtype != np.uint32):
        raise ValueError(
            f"out must be a {(len(raw), count)} uint32 matrix, got {out.shape} {out.dtype}"
        )
    if len(raw) == 0:
        return np.zeros((0, count), dtype=np.uint32) if out is None else out
    return _unpack_rows(raw, count, bits, out)


# -- sign helpers -------------------------------------------------------------


def unpack_signs(data: ByteLike, count: int) -> np.ndarray:
    """1-bit entries as a float64 ±1 array (1 -> +1, 0 -> -1)."""
    bits = unpack_bits(data, count, 1)
    return bits.astype(np.float64) * 2.0 - 1.0
