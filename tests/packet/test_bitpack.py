"""Tests for bit-level packing of P-bit heads."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.packet import pack_segments, packed_size, unpack_bits, unpack_signs


def pack_bits(values, bits) -> bytes:
    """One flat plane packed MSB-first: ``pack_segments`` with one segment."""
    values = np.asarray(values).reshape(-1)
    if values.size == 0:
        return b""
    return bytes(pack_segments(values, bits, values.size).segment(0))


class TestPackedSize:
    def test_one_bit(self):
        assert packed_size(0, 1) == 0
        assert packed_size(1, 1) == 1
        assert packed_size(8, 1) == 1
        assert packed_size(9, 1) == 2
        assert packed_size(365, 1) == 46

    def test_multi_bit(self):
        assert packed_size(3, 7) == 3  # 21 bits -> 3 bytes
        assert packed_size(4, 31) == 16  # 124 bits -> 16 bytes
        assert packed_size(2, 32) == 8

    def test_rejects_bad_bits(self):
        with pytest.raises(ValueError):
            packed_size(1, 0)
        with pytest.raises(ValueError):
            packed_size(1, 33)

    def test_rejects_negative_count(self):
        with pytest.raises(ValueError):
            packed_size(-1, 8)


class TestPackUnpack:
    def test_round_trip_small(self):
        values = np.array([0, 1, 1, 0, 1], dtype=np.uint32)
        assert np.array_equal(unpack_bits(pack_bits(values, 1), 5, 1), values)

    def test_round_trip_31_bits(self):
        values = np.array([0, 1, 2**31 - 1, 12345678], dtype=np.uint32)
        assert np.array_equal(unpack_bits(pack_bits(values, 31), 4, 31), values)

    def test_msb_first_layout(self):
        # Value 1 in a 1-bit code lands in the MSB of the first byte.
        assert pack_bits(np.array([1]), 1) == b"\x80"
        assert pack_bits(np.array([1, 1, 0, 0, 0, 0, 0, 1]), 1) == b"\xc1"

    def test_empty_input(self):
        assert pack_bits(np.zeros(0, dtype=np.uint32), 5) == b""
        assert unpack_bits(b"", 0, 5).size == 0

    def test_out_of_range_value_rejected(self):
        with pytest.raises(ValueError, match="does not fit"):
            pack_bits(np.array([4]), 2)

    def test_short_buffer_rejected(self):
        with pytest.raises(ValueError, match="need"):
            unpack_bits(b"\x00", 9, 1)

    def test_extra_buffer_ignored(self):
        values = np.array([3, 1], dtype=np.uint32)
        data = pack_bits(values, 2) + b"junk"
        assert np.array_equal(unpack_bits(data, 2, 2), values)


class TestSigns:
    def test_round_trip(self):
        signs = np.array([1.0, -1.0, -1.0, 1.0, 1.0])
        assert np.array_equal(unpack_signs(pack_bits(signs > 0, 1), 5), signs)

    def test_zero_maps_to_minus_one(self):
        assert np.array_equal(unpack_signs(pack_bits(np.array([0]), 1), 1), [-1.0])

    def test_boolean_input(self):
        signs = unpack_signs(pack_bits(np.array([True, False, True]), 1), 3)
        assert np.array_equal(signs, [1.0, -1.0, 1.0])


@settings(max_examples=60)
@given(
    bits=st.integers(min_value=1, max_value=32),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    count=st.integers(min_value=0, max_value=300),
)
def test_pack_unpack_round_trip_property(bits, seed, count):
    """pack_bits/unpack_bits is lossless for every width in [1, 32]."""
    rng = np.random.default_rng(seed)
    high = (1 << bits) - 1
    values = rng.integers(0, high + 1, size=count, dtype=np.uint64).astype(np.uint32)
    packed = pack_bits(values, bits)
    assert len(packed) == packed_size(count, bits)
    assert np.array_equal(unpack_bits(packed, count, bits), values)
