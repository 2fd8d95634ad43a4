"""Every bit-packing kernel vs. the per-bit reference, byte for byte.

``repro.packet.bitpack`` has a dedicated path per width class
(``np.packbits`` for 1, byte/word views for 8 / 16 / 32, the block-of-8
``uint64`` word kernel for everything else, the paper's Q = 31 included).
All of them must be *byte-identical* to the original per-bit expansion,
which lives next to this file as ``bitpack_oracle`` precisely so these
tests can compare against it.  Hypothesis sweeps every width 1–32 through
the public API and the whole-message ``pack_segments`` / ``unpack_batch``
layer; a deterministic sweep drives the two row kernels directly over the
shapes where the word kernel changes behaviour (short final block, one
block, many rows), and a grid walks the whole-message layer across the
row-group boundary (``ROW_GROUP`` packets are packed a call), into a fresh
buffer and straight into the strided rows of a caller's.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.packet import (
    pack_segments,
    packed_size,
    unpack_batch,
    unpack_bits,
)
from repro.packet.bitpack import FAST_WIDTHS, ROW_GROUP, _pack_rows, _unpack_rows

from .bitpack_oracle import _pack_bits_generic, _unpack_bits_generic
from .test_bitpack import pack_bits


@st.composite
def values_with_width(draw, widths=st.integers(min_value=1, max_value=32)):
    """(values, bits): arbitrary width with in-range values."""
    bits = draw(widths)
    count = draw(st.integers(min_value=0, max_value=300))
    top = (1 << bits) - 1
    values = draw(
        st.lists(st.integers(min_value=0, max_value=top), min_size=count, max_size=count)
    )
    return np.array(values, dtype=np.uint32), bits


class TestFastPathMatchesReference:
    @given(values_with_width())
    @settings(max_examples=300, deadline=None)
    def test_pack_bits_byte_identical(self, case):
        values, bits = case
        assert pack_bits(values, bits) == _pack_bits_generic(values, bits)

    @given(values_with_width())
    @settings(max_examples=300, deadline=None)
    def test_unpack_bits_matches_reference(self, case):
        values, bits = case
        packed = _pack_bits_generic(values, bits)
        fast = unpack_bits(packed, values.size, bits)
        reference = _unpack_bits_generic(packed, values.size, bits)
        assert np.array_equal(fast, reference)
        assert fast.dtype == reference.dtype == np.uint32

    @given(values_with_width(widths=st.sampled_from(FAST_WIDTHS)))
    @settings(max_examples=200, deadline=None)
    def test_dedicated_widths_round_trip_through_either_path(self, case):
        """Mix-and-match: fast pack -> reference unpack and vice versa."""
        values, bits = case
        fast_packed = pack_bits(values, bits)
        assert np.array_equal(
            _unpack_bits_generic(fast_packed, values.size, bits), values
        )
        assert np.array_equal(
            unpack_bits(_pack_bits_generic(values, bits), values.size, bits), values
        )

    @pytest.mark.parametrize("bits", range(1, 33))
    def test_extreme_values_every_width(self, bits):
        """Boundary patterns (all zeros, all ones, alternating) per width."""
        top = (1 << bits) - 1
        values = np.array([0, top, 0, top, top, 0, 1 % (top + 1)], dtype=np.uint32)
        assert pack_bits(values, bits) == _pack_bits_generic(values, bits)
        packed = pack_bits(values, bits)
        assert np.array_equal(unpack_bits(packed, values.size, bits), values)


def _patterns(rows: int, count: int, bits: int):
    """Value matrices worth packing: random, all ones, alternating."""
    top = (1 << bits) - 1
    rng = np.random.default_rng(1000 * bits + 10 * count + rows)
    yield rng.integers(0, top + 1, size=(rows, count), dtype=np.uint64).astype(np.uint32)
    yield np.full((rows, count), top, dtype=np.uint32)
    alternating = np.zeros((rows, count), dtype=np.uint32)
    alternating[:, ::2] = top
    yield alternating
    yield top - alternating


class TestRowKernelsMatchReference:
    """`_pack_rows` / `_unpack_rows` over the block-boundary shapes."""

    COUNTS = (0, 1, 7, 8, 9, 63, 64, 65, 355, 356, 357)

    @pytest.mark.parametrize("bits", range(1, 33))
    def test_both_directions_every_width(self, bits):
        for count in self.COUNTS:
            need = packed_size(count, bits)
            for rows in (1, 2, 5):
                for values in _patterns(rows, count, bits):
                    packed = _pack_rows(values, bits)
                    assert packed.dtype == np.uint8 and packed.shape == (rows, need)
                    for row, row_values in zip(packed, values):
                        assert row.tobytes() == _pack_bits_generic(row_values, bits)
                    unpacked = _unpack_rows(np.ascontiguousarray(packed), count, bits)
                    assert unpacked.dtype == np.uint32 and unpacked.shape == (rows, count)
                    assert np.array_equal(unpacked, values)
                    for row, row_values in zip(packed, values):
                        assert np.array_equal(
                            _unpack_bits_generic(row.tobytes(), count, bits), row_values
                        )

    @pytest.mark.parametrize("bits", range(1, 33))
    def test_unpack_ignores_trailing_bytes(self, bits):
        for count in (1, 9, 356):
            values = next(_patterns(3, count, bits))
            packed = _pack_rows(values, bits)
            padded = np.concatenate([packed, np.full((3, 5), 0xFF, dtype=np.uint8)], axis=1)
            assert np.array_equal(_unpack_rows(padded, count, bits), values)

    @pytest.mark.parametrize("bits", [1, 3, 7, 8, 13, 16, 31, 32])
    def test_pack_segments_bytes_do_not_depend_on_input_dtype(self, bits):
        values = next(_patterns(1, 357, bits)).reshape(-1)
        want = pack_segments(values.astype(np.uint64), bits, 100).buffer
        assert want == b"".join(
            _pack_bits_generic(values[lo : lo + 100], bits).ljust(packed_size(100, bits), b"\0")
            for lo in range(0, 357, 100)
        )
        for dtype in (np.uint8, np.uint16, np.uint32, np.int64):
            if np.iinfo(dtype).max >= (1 << bits) - 1:
                assert pack_segments(values.astype(dtype), bits, 100).buffer == want
        assert pack_segments(values.tolist(), bits, 100).buffer == want

    @pytest.mark.parametrize("bits", [1, 5, 8, 16, 31])
    @pytest.mark.parametrize("dtype", [np.uint32, np.uint64, np.int64])
    def test_pack_segments_still_rejects_out_of_range(self, bits, dtype):
        values = np.zeros(20, dtype=dtype)
        values[13] = 1 << bits
        with pytest.raises(ValueError, match="does not fit"):
            pack_segments(values, bits, 8)

    @pytest.mark.parametrize("bits", [1, 7, 31, 32])
    def test_pack_segments_still_rejects_negative(self, bits):
        values = np.zeros(20, dtype=np.int64)
        values[4] = -1
        with pytest.raises(ValueError, match="does not fit"):
            pack_segments(values, bits, 8)


class TestPackSegmentsEquivalence:
    @given(
        values_with_width(),
        st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=200, deadline=None)
    def test_segments_match_per_slice_pack_bits(self, case, segment_len):
        """Each segment's bytes equal pack_bits of the matching slice."""
        values, bits = case
        plane = pack_segments(values, bits, segment_len)
        assert plane.num_segments == -(-values.size // segment_len) if values.size else True
        for i in range(plane.num_segments):
            lo = i * segment_len
            piece = values[lo : lo + segment_len]
            assert bytes(plane.segment(i)) == pack_bits(piece, bits)
            assert plane.segment_count(i) == piece.size

    @given(
        values_with_width(),
        st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=200, deadline=None)
    def test_unpack_batch_inverts_full_segments(self, case, segment_len):
        values, bits = case
        plane = pack_segments(values, bits, segment_len)
        full = [
            plane.segment(i)
            for i in range(plane.num_segments)
            if plane.segment_count(i) == segment_len
        ]
        if not full:
            return
        matrix = unpack_batch(full, segment_len, bits)
        assert matrix.shape == (len(full), segment_len)
        expected = values[: len(full) * segment_len].reshape(len(full), segment_len)
        assert np.array_equal(matrix, expected)

    def test_unpack_batch_rejects_ragged_chunks(self):
        values = np.arange(16, dtype=np.uint32) % 2
        plane = pack_segments(values, 1, 8)
        good = bytes(plane.segment(0))
        with pytest.raises(ValueError, match="exactly"):
            unpack_batch([good, good[:-1] + b""], 8, 1)

    def test_unpack_batch_accepts_memoryviews(self):
        values = np.arange(24, dtype=np.uint32) % 8
        plane = pack_segments(values, 3, 8)
        chunks = [plane.segment(i) for i in range(plane.num_segments)]
        assert all(isinstance(c, memoryview) for c in chunks)
        matrix = unpack_batch(chunks, 8, 3)
        assert np.array_equal(matrix.reshape(-1), values)

    def test_empty_plane(self):
        plane = pack_segments(np.zeros(0, dtype=np.uint32), 5, 10)
        assert plane.num_segments == 0
        assert plane.buffer == b""
        assert unpack_batch([], 10, 5).shape == (0, 10)

    @pytest.mark.parametrize("bits", range(1, 33))
    def test_partial_final_segment_zero_pad_is_invisible(self, bits):
        """The padded final segment's bytes equal packing the short slice."""
        top = (1 << bits) - 1
        values = (np.arange(19, dtype=np.uint64) * 7919 % (top + 1)).astype(np.uint32)
        plane = pack_segments(values, bits, 8)
        last = plane.num_segments - 1
        assert bytes(plane.segment(last)) == pack_bits(values[last * 8 :], bits)


def _oracle_plane(values: np.ndarray, bits: int, segment_len: int) -> list[bytes]:
    """Every segment's packed bytes, one oracle call a segment."""
    return [
        _pack_bits_generic(values[lo : lo + segment_len], bits)
        for lo in range(0, values.size, segment_len)
    ]


def _caller_rows(segments: int, seg_bytes: int, last_bytes: int):
    """A caller's buffer shaped like ``packetize``'s: the segments are columns
    ``3 : 3 + seg_bytes`` of wider rows, the final one follows the matrix;
    every other byte is a sentinel that must survive."""
    width = seg_bytes + 8
    buf = np.full((segments - 1) * width + 5 + last_bytes + 2, 0xA5, dtype=np.uint8)
    rows = buf[: (segments - 1) * width].reshape(segments - 1, width)
    last = buf[(segments - 1) * width + 5 :][:last_bytes]
    return buf, (rows[:, 3 : 3 + seg_bytes], last)


class TestRowGroupOracleGrid:
    """Every width x every ``count % 8`` x segment counts around the row
    group x a short final segment x both input dtypes, bytes equal to the
    per-bit oracle's — for the returned buffer and for ``out=``."""

    SEGMENTS = (1, ROW_GROUP - 1, ROW_GROUP, ROW_GROUP + 1, 2 * ROW_GROUP + 3)

    @pytest.mark.parametrize("dtype", [np.uint32, np.uint64])
    @pytest.mark.parametrize("bits", range(1, 33))
    def test_pack_and_unpack_across_the_group_boundary(self, bits, dtype):
        rng = np.random.default_rng(bits)
        for remainder in range(8):
            segment_len = 16 + remainder
            seg_bytes = packed_size(segment_len, bits)
            for segments in self.SEGMENTS:
                last_count = (3 * segments + remainder) % segment_len + 1  # 1 .. segment_len
                total = (segments - 1) * segment_len + last_count
                values = rng.integers(0, 1 << bits, size=total, dtype=np.uint64).astype(dtype)
                values[:: max(total // 7, 1)] = (1 << bits) - 1
                want = _oracle_plane(values, bits, segment_len)

                plane = pack_segments(values, bits, segment_len)
                assert plane.num_segments == segments and len(plane.buffer) == segments * seg_bytes
                assert [bytes(plane.segment(i)) for i in range(segments)] == want
                tail = plane.buffer[(segments - 1) * seg_bytes + len(want[-1]) :]
                assert not any(tail)  # the zero padding past a short final segment

                buf, out = _caller_rows(segments, seg_bytes, len(want[-1]))
                untouched = buf.copy()
                direct = pack_segments(values, bits, segment_len, out=out)
                assert (direct.buffer, direct.total, direct.num_segments) == (b"", total, segments)
                assert [row.tobytes() for row in out[0]] + [out[1].tobytes()] == want
                out[0][...] = out[1][...] = 0xA5
                assert np.array_equal(buf, untouched)  # nothing outside the destinations

                full = [plane.segment(i) for i in range(segments - 1)]
                matrix = unpack_batch(full, segment_len, bits)
                assert matrix.dtype == np.uint32 and matrix.shape == (segments - 1, segment_len)
                assert np.array_equal(matrix.reshape(-1), values[: (segments - 1) * segment_len])
                got_last = unpack_batch([plane.segment(segments - 1)], last_count, bits)
                assert np.array_equal(got_last[0], values[(segments - 1) * segment_len :])
                for i in (0, segments // 2, segments - 2):
                    if 0 <= i < segments - 1:
                        oracle = _unpack_bits_generic(bytes(full[i]), segment_len, bits)
                        assert np.array_equal(matrix[i], oracle)

                # out=: consecutive rows of a larger plane (unit column
                # stride), then every other column of a wider matrix.
                rows = segments - 1
                plane_rows = np.full((rows + 4, segment_len), 7, dtype=np.uint32)
                into = plane_rows[2 : 2 + rows]
                assert unpack_batch(full, segment_len, bits, out=into) is into
                assert np.array_equal(into, matrix)
                assert (plane_rows[:2] == 7).all() and (plane_rows[2 + rows :] == 7).all()
                strided = np.full((rows, 2 * segment_len), 7, dtype=np.uint32)
                unpack_batch(full, segment_len, bits, out=strided[:, ::2])
                assert np.array_equal(strided[:, ::2], matrix) and (strided[:, 1::2] == 7).all()

    def test_unpack_out_must_fit(self):
        chunks = [bytes(packed_size(8, 3))] * 2
        for out in (np.zeros((2, 9), np.uint32), np.zeros((3, 8), np.uint32), np.zeros((2, 8))):
            with pytest.raises(ValueError, match="out must be a"):
                unpack_batch(chunks, 8, 3, out=out)

    @pytest.mark.parametrize("bits", [1, 5, 8, 16, 31])
    def test_bad_input_raises_before_out_is_written(self, bits):
        segment_len, segments = 21, ROW_GROUP + 2
        total = (segments - 1) * segment_len + 4
        values = np.zeros(total, dtype=np.uint64)
        seg_bytes, last_bytes = packed_size(segment_len, bits), packed_size(4, bits)

        def destinations():
            buf, out = _caller_rows(segments, seg_bytes, last_bytes)
            return buf, buf.copy(), out

        # a value one past the width, in the last row group
        values[-2] = 1 << bits
        buf, before, out = destinations()
        with pytest.raises(ValueError, match=f"does not fit in {bits} bits"):
            pack_segments(values, bits, segment_len, out=out)
        assert np.array_equal(buf, before)
        with pytest.raises(ValueError, match="does not fit"):
            pack_segments(values.astype(np.int64) * -1, bits, segment_len, out=out)
        assert np.array_equal(buf, before)
        values[-2] = 0
        # destinations of the wrong shape: a row short, a byte narrow, a long tail
        for wrong in (
            (out[0][:-1], out[1]),
            (out[0][:, :-1], out[1]),
            (out[0], np.zeros(last_bytes + 1, dtype=np.uint8)),
        ):
            with pytest.raises(ValueError, match="out must have shapes"):
                pack_segments(values, bits, segment_len, out=wrong)
            assert np.array_equal(buf, before)

    @pytest.mark.parametrize("bits", [1, 7, 31, 32])
    def test_a_wrong_length_chunk_raises_whichever_group_it_is_in(self, bits):
        count = 19
        good = bytes(packed_size(count, bits))
        for where in (0, ROW_GROUP - 1, ROW_GROUP, 2 * ROW_GROUP + 2):
            chunks = [good] * (2 * ROW_GROUP + 3)
            chunks[where] = good + b"\0"
            with pytest.raises(ValueError, match=f"need exactly {len(good)} bytes per chunk"):
                unpack_batch(chunks, count, bits)

    def test_row_kernel_fills_a_strided_out_group_by_group(self):
        """``_pack_rows(out=)``: reversed rows, every other column of a wider matrix."""
        rows, count, bits = 2 * ROW_GROUP + 3, 43, 31
        values = np.random.default_rng(7).integers(0, 1 << bits, size=(rows, count), dtype=np.uint64)
        need = packed_size(count, bits)
        backing = np.full((rows, 2 * need + 1), 0x5A, dtype=np.uint8)
        out = backing[::-1, 1::2][:, :need]
        assert _pack_rows(values.astype(np.uint32), bits, out) is out
        assert np.array_equal(out, _pack_rows(values, bits))
        for row, row_values in zip(out[:: ROW_GROUP // 2], values[:: ROW_GROUP // 2]):
            assert row.tobytes() == _pack_bits_generic(row_values, bits)
        assert (backing[:, 0::2] == 0x5A).all()
