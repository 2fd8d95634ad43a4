"""Tests for trim policies, including multi-level trimming, and for
``Packet.trim(bits)``, the one cut they all make."""

import numpy as np
import pytest

from repro.packet import (
    GRADIENT_HEADER_BYTES,
    GradientHeader,
    MultiLevelTrim,
    NeverTrim,
    Packet,
    SingleLevelTrim,
)

from .test_bitpack import pack_bits


def plane_packet(coord_count=50):
    """A 3-plane (1/7/24-bit) tiered packet as the multilevel codec emits."""
    header = GradientHeader(
        codec_id=5,
        head_bits=1,
        tail_bits=31,
        message_id=1,
        epoch=0,
        chunk_index=1,
        coord_offset=0,
        coord_count=coord_count,
        seed=0,
    )
    rng = np.random.default_rng(1)
    signs = rng.integers(0, 2, coord_count).astype(np.uint32)
    mags = rng.integers(0, 128, coord_count).astype(np.uint32)
    residuals = rng.integers(0, 2**24, coord_count).astype(np.uint32)
    payload = (
        header.to_bytes()
        + pack_bits(signs, 1)
        + pack_bits(mags, 7)
        + pack_bits(residuals, 24)
    )
    return Packet(src="a", dst="b", payload=payload)


class TestNeverTrim:
    def test_always_drops(self):
        policy = NeverTrim()
        assert policy.trim(plane_packet(), queue_fill=1.0) is None


class TestSingleLevelTrim:
    def test_trims_gradient_packets(self):
        policy = SingleLevelTrim()
        pkt = plane_packet()
        out, level = policy.trim(pkt, queue_fill=0.99)
        assert out.is_trimmed and level == 0
        assert out.payload == pkt.trim().payload
        assert out.wire_size < pkt.wire_size

    def test_drops_untrimmable_packets(self):
        policy = SingleLevelTrim()
        pkt = Packet(src="a", dst="b", payload=b"x" * 500)
        assert policy.trim(pkt, queue_fill=0.99) is None


class TestMultiLevelTrim:
    def test_level_selection_by_fill(self):
        policy = MultiLevelTrim(level_bits=[8, 1], thresholds=[0.7, 0.9])
        pkt = plane_packet()
        assert policy.trim(pkt, queue_fill=0.75)[1] == 0  # keep 8 bits
        assert policy.trim(pkt, queue_fill=0.95)[1] == 1  # keep 1 bit

    def test_below_threshold_overflow_uses_shallowest(self):
        policy = MultiLevelTrim(level_bits=[8, 1], thresholds=[0.7, 0.9])
        assert policy.trim(plane_packet(), queue_fill=0.1)[1] == 0

    def test_apply_produces_expected_sizes(self):
        policy = MultiLevelTrim(level_bits=[8, 1], thresholds=[0.7, 0.9])
        pkt = plane_packet(coord_count=50)
        keep8, _ = policy.trim(pkt, 0.75)
        keep1, _ = policy.trim(pkt, 0.95)
        # 50 coords: sign plane 7 B, magnitude plane 44 B, residual 150 B.
        assert len(keep8.payload) == GRADIENT_HEADER_BYTES + 7 + 44
        assert len(keep1.payload) == GRADIENT_HEADER_BYTES + 7
        assert keep8.grad_header.head_bits == 8
        assert keep1.grad_header.head_bits == 1

    def test_a_trim_that_cuts_nothing_drops(self):
        # A remnant already at the sign plane cannot shrink: nothing to
        # enqueue in the express band, so the switch must drop it instead.
        policy = MultiLevelTrim(level_bits=[32], thresholds=[0.0])
        assert policy.trim(plane_packet().trim(1), queue_fill=1.0) is None
        # A level at or beyond the full depth cuts at the deepest boundary below it.
        remnant, _ = policy.trim(plane_packet(), queue_fill=1.0)
        assert remnant.grad_header.head_bits == 8

    def test_drops_untrimmable_packets(self):
        policy = MultiLevelTrim(level_bits=[8, 1], thresholds=[0.7, 0.9])
        pkt = Packet(src="a", dst="b", payload=b"x" * 500)
        assert policy.trim(pkt, queue_fill=0.99) is None

    def test_validation(self):
        with pytest.raises(ValueError, match="same length"):
            MultiLevelTrim(level_bits=[8], thresholds=[0.5, 0.9])
        with pytest.raises(ValueError, match="non-decreasing"):
            MultiLevelTrim(level_bits=[8, 1], thresholds=[0.9, 0.5])
        with pytest.raises(ValueError, match="non-increasing"):
            MultiLevelTrim(level_bits=[1, 8], thresholds=[0.5, 0.9])


class TestTrimToBits:
    """``Packet.trim(bits)``: the deepest plane boundary of the packet's own
    code at most ``bits`` and below what it carries, else the shallowest."""

    def test_keep_bits_must_hit_plane_boundary(self):
        pkt = plane_packet()
        assert pkt.trim(5).payload == pkt.trim(1).payload
        assert pkt.trim(31).payload == pkt.trim(8).payload

    def test_keep_all_bits_cuts_at_the_deepest_boundary(self):
        pkt = plane_packet()
        assert pkt.trim(32).payload == pkt.trim(8).payload

    def test_requires_gradient_packet(self):
        with pytest.raises(ValueError, match="not trimmable"):
            Packet(src="a", dst="b", payload=b"zz").trim(1)

    def test_cannot_keep_more_than_total(self):
        pkt = plane_packet()
        assert pkt.trim(40).payload == pkt.trim(8).payload
        assert pkt.trim(8).trimmable_bytes(40) == len(pkt.trim(1).payload)

    def test_sealed_packet_is_resealed(self):
        """A multi-level trim must re-seal, like a head-only one — a stale
        checksum would read as in-flight corruption at the receiver."""
        pkt = plane_packet()
        pkt.seal()
        trimmed = pkt.trim(8)
        assert trimmed.checksum is not None
        assert trimmed.verify()

    def test_unsealed_packet_stays_unsealed(self):
        trimmed = plane_packet().trim(8)
        assert trimmed.checksum is None

    def test_two_plane_default_head_trim(self):
        """On a (P, Q) packet every level keeps the heads, as Packet.trim() does."""
        from tests.packet.test_packet import gradient_packet

        pkt = gradient_packet(coord_count=100)
        assert pkt.trim(8).payload == pkt.trim(1).payload == pkt.trim().payload
        assert pkt.trim().trimmable_bytes(8) is None
