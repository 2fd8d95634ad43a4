"""Tests for the Section 5.1 multi-level (1/8/32-bit) tiered codec."""

import dataclasses

import numpy as np
import pytest

from repro.core import (
    LEVEL_BITS,
    GradientCodec,
    MultiLevelCodec,
    codec_by_id,
    decode_packets,
    depacketize,
    nmse,
    packetize,
)
from repro.packet import MultiLevelTrim


def gradient(n=4096, seed=0):
    return np.random.default_rng(seed).standard_normal(n)


def at_depth(enc, levels):
    """``enc`` as the packetizer hands it over when ``levels`` arrived."""
    return dataclasses.replace(enc, depth=np.asarray(levels, dtype=np.uint8))


class TestArrayLevel:
    def test_full_precision_decode_near_exact(self):
        x = gradient()
        codec = MultiLevelCodec(root_seed=1, row_size=1024)
        decoded = codec.decode(codec.encode(x))
        assert nmse(x, decoded) < 1e-10

    def test_error_ordering_by_level(self):
        """More surviving bits -> strictly lower reconstruction error."""
        x = gradient(2**13, seed=3)
        codec = MultiLevelCodec(root_seed=2, row_size=2048)
        enc = codec.encode(x)
        errors = {}
        for bits in LEVEL_BITS:
            errors[bits] = nmse(x, codec.decode(at_depth(enc, np.full(enc.length, bits))))
        assert errors[32] < errors[8] < errors[1]
        assert errors[8] < 1e-3  # 8-bit uniform quantization is already good
        assert errors[1] < 1.0

    def test_one_bit_level_matches_rht_codec(self):
        """Level-1 decoding is exactly the DRIVE sign+scale rule."""
        from repro.core import RHTCodec

        x = gradient(2048, seed=5)
        ml = MultiLevelCodec(root_seed=7, row_size=1024)
        rht = RHTCodec(root_seed=7, row_size=1024)
        enc_ml = ml.encode(x, epoch=1, message_id=2)
        enc_r = rht.encode(x, epoch=1, message_id=2)
        dec_ml = ml.decode(enc_ml, trimmed=np.ones(enc_ml.length, dtype=bool))
        dec_r = rht.decode(enc_r, trimmed=np.ones(enc_r.length, dtype=bool))
        assert np.allclose(dec_ml, dec_r, atol=1e-6)

    def test_level_zero_means_missing(self):
        x = gradient(1024, seed=1)
        codec = MultiLevelCodec(root_seed=1, row_size=1024)
        enc = codec.encode(x)
        assert np.allclose(codec.decode(at_depth(enc, np.zeros(enc.length))), 0.0)
        assert np.allclose(codec.decode(enc, missing=np.ones(enc.length, dtype=bool)), 0.0)

    def test_mixed_levels(self):
        x = gradient(2048, seed=2)
        codec = MultiLevelCodec(root_seed=1, row_size=1024)
        enc = codec.encode(x)
        rng = np.random.default_rng(0)
        levels = rng.choice([0, 1, 8, 32], size=enc.length, p=[0.05, 0.25, 0.3, 0.4])
        decoded = codec.decode(at_depth(enc, levels))
        assert np.all(np.isfinite(decoded))
        assert nmse(x, decoded) < 0.5

    def test_invalid_level_rejected(self):
        codec = MultiLevelCodec(row_size=64)
        enc = codec.encode(gradient(64))
        with pytest.raises(ValueError, match="invalid depth"):
            codec.decode(at_depth(enc, np.full(enc.length, 4)))

    def test_bad_levels_shape_rejected(self):
        codec = MultiLevelCodec(row_size=64)
        enc = codec.encode(gradient(64))
        with pytest.raises(ValueError, match="depth shape"):
            at_depth(enc, np.zeros(3))

    def test_registered_under_codec_id_5(self):
        codec = codec_by_id(5)
        assert isinstance(codec, MultiLevelCodec) and isinstance(codec, GradientCodec)
        assert (codec.head_bits, codec.tail_bits) == (1, 31)


class TestPacketLevel:
    def test_round_trip_untrimmed(self):
        x = gradient(3000, seed=4)
        codec = MultiLevelCodec(root_seed=3, row_size=1024)
        packets = packetize(codec.encode(x), "a", "b")
        assert np.all(depacketize(packets).depth == 32)
        assert nmse(x, decode_packets(packets, codec)) < 1e-10

    def test_switch_trim_to_8_bits(self):
        x = gradient(3000, seed=4)
        codec = MultiLevelCodec(root_seed=3, row_size=1024)
        packets = packetize(codec.encode(x), "a", "b")
        wire = [packets[0]] + [p.trim(8) for p in packets[1:]]
        assert np.all(depacketize(wire).depth == 8)
        assert nmse(x, decode_packets(wire, codec)) < 1e-3

    def test_switch_trim_to_1_bit(self):
        x = gradient(3000, seed=4)
        codec = MultiLevelCodec(root_seed=3, row_size=1024)
        packets = packetize(codec.encode(x), "a", "b")
        wire = [packets[0]] + [p.trim(1) for p in packets[1:]]
        message = depacketize(wire)
        assert np.all(message.depth == 1) and message.trimmed.all()
        assert nmse(x, decode_packets(wire, codec)) < 1.0

    def test_mixed_trim_depths_on_wire(self):
        x = gradient(2**13, seed=8)
        codec = MultiLevelCodec(root_seed=3, row_size=1024)
        packets = packetize(codec.encode(x), "a", "b")
        policy = MultiLevelTrim(level_bits=[8, 1], thresholds=[0.7, 0.9])
        rng = np.random.default_rng(2)
        wire = [packets[0]]
        for pkt in packets[1:]:
            fill = rng.random()
            if fill < 0.5:
                wire.append(pkt)
            else:
                wire.append(policy.trim(pkt, fill)[0])
        assert set(np.unique(depacketize(wire).depth)) <= {1, 8, 32}
        assert nmse(x, decode_packets(wire, codec)) < 0.6

    def test_trim_sizes_match_paper_targets(self):
        """Section 5.1: trim to ~25% (8 bits) or ~3% (1 bit) of full size."""
        x = gradient(3000, seed=4)
        codec = MultiLevelCodec(root_seed=3, row_size=1024)
        packets = packetize(codec.encode(x), "a", "b")
        full = packets[1]
        frac8 = full.trim(8).wire_size / full.wire_size
        frac1 = full.trim(1).wire_size / full.wire_size
        assert 0.2 < frac8 < 0.35
        assert frac1 < 0.12

    def test_missing_metadata_rejected(self):
        codec = MultiLevelCodec(root_seed=3, row_size=1024)
        packets = packetize(codec.encode(gradient(100)), "a", "b")
        with pytest.raises(ValueError, match="metadata packet missing"):
            decode_packets(packets[1:], codec)

    def test_dropped_packets_get_level_zero(self):
        x = gradient(2**13, seed=9)
        codec = MultiLevelCodec(root_seed=3, row_size=1024)
        packets = packetize(codec.encode(x), "a", "b")
        kept = [packets[0]] + packets[2:]
        levels = depacketize(kept).depth
        dropped = packets[1].grad_header
        lo, hi = dropped.coord_offset, dropped.coord_offset + dropped.coord_count
        assert np.all(levels[lo:hi] == 0)
        assert np.all(levels[hi:] == 32)
