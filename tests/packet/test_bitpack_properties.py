"""Property-based tests for the bit-packing wire format.

Hypothesis sweeps every head width 1–32 and ragged coordinate counts,
checking the algebraic contracts the packetizer relies on: pack/unpack
round-trips losslessly, the byte budget matches ``packed_size``, and
sign packing is an involution.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.packet import packed_size, unpack_bits, unpack_signs

from .test_bitpack import pack_bits


@st.composite
def values_with_width(draw):
    """(values, bits): arbitrary width, ragged count, in-range values."""
    bits = draw(st.integers(min_value=1, max_value=32))
    count = draw(st.integers(min_value=0, max_value=300))
    top = (1 << bits) - 1
    values = draw(
        st.lists(st.integers(min_value=0, max_value=top), min_size=count, max_size=count)
    )
    return np.array(values, dtype=np.uint32), bits


class TestPackBitsProperties:
    @given(values_with_width())
    @settings(max_examples=200, deadline=None)
    def test_round_trip_any_width_any_count(self, case):
        values, bits = case
        packed = pack_bits(values, bits)
        assert np.array_equal(unpack_bits(packed, values.size, bits), values)

    @given(values_with_width())
    @settings(max_examples=200, deadline=None)
    def test_packed_length_matches_budget(self, case):
        values, bits = case
        assert len(pack_bits(values, bits)) == packed_size(values.size, bits)

    @given(values_with_width(), st.integers(min_value=0, max_value=7))
    @settings(max_examples=100, deadline=None)
    def test_trailing_padding_is_ignored(self, case, extra_bytes):
        """Unpacking tolerates (and ignores) surplus trailing bytes —
        what a trimmed packet's byte-aligned payload looks like."""
        values, bits = case
        packed = pack_bits(values, bits) + b"\xff" * extra_bytes
        assert np.array_equal(unpack_bits(packed, values.size, bits), values)

    @given(values_with_width())
    @settings(max_examples=100, deadline=None)
    def test_unpack_is_pure(self, case):
        values, bits = case
        packed = pack_bits(values, bits)
        first = unpack_bits(packed, values.size, bits)
        second = unpack_bits(packed, values.size, bits)
        assert np.array_equal(first, second)


class TestPackSignsProperties:
    @given(st.lists(st.sampled_from([-1.0, 1.0]), max_size=500))
    @settings(max_examples=200, deadline=None)
    def test_involution(self, entries):
        """pack -> unpack returns the exact ±1 vector that went in."""
        signs = np.array(entries, dtype=np.float64)
        assert np.array_equal(unpack_signs(pack_bits(signs > 0, 1), signs.size), signs)

    @given(st.lists(st.integers(min_value=0, max_value=1), max_size=500))
    @settings(max_examples=100, deadline=None)
    def test_round_trip_preserves_bit_pattern(self, bits):
        """The wire bit for entry i survives a pack/unpack cycle."""
        signs = np.array(bits, dtype=np.uint32)
        recovered = unpack_signs(pack_bits(signs, 1), signs.size)
        assert np.array_equal(recovered > 0, signs == 1)
