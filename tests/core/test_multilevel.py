"""Tests for the Section 5.1 multi-level (1/8/32-bit) tiered codec."""

import numpy as np
import pytest

from repro.core import LEVEL_BITS, MultiLevelCodec, nmse
from repro.packet import MultiLevelTrim, trim_to_bits


def gradient(n=4096, seed=0):
    return np.random.default_rng(seed).standard_normal(n)


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
            levels = np.full(enc.length, bits, dtype=np.int64)
            errors[bits] = nmse(x, codec.decode(enc, levels))
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
        dec_ml = ml.decode(enc_ml, np.full(enc_ml.length, 1, dtype=np.int64))
        dec_r = rht.decode(enc_r, trimmed=np.ones(enc_r.length, dtype=bool))
        assert np.allclose(dec_ml, dec_r, atol=1e-6)

    def test_level_zero_means_missing(self):
        x = gradient(1024, seed=1)
        codec = MultiLevelCodec(root_seed=1, row_size=1024)
        enc = codec.encode(x)
        decoded = codec.decode(enc, np.zeros(enc.length, dtype=np.int64))
        assert np.allclose(decoded, 0.0)

    def test_mixed_levels(self):
        x = gradient(2048, seed=2)
        codec = MultiLevelCodec(root_seed=1, row_size=1024)
        enc = codec.encode(x)
        rng = np.random.default_rng(0)
        levels = rng.choice([0, 1, 8, 32], size=enc.length, p=[0.05, 0.25, 0.3, 0.4])
        decoded = codec.decode(enc, levels)
        assert np.all(np.isfinite(decoded))
        assert nmse(x, decoded) < 0.5

    def test_invalid_level_rejected(self):
        codec = MultiLevelCodec(row_size=64)
        enc = codec.encode(gradient(64))
        with pytest.raises(ValueError, match="invalid level"):
            codec.decode(enc, np.full(enc.length, 4, dtype=np.int64))

    def test_bad_levels_shape_rejected(self):
        codec = MultiLevelCodec(row_size=64)
        enc = codec.encode(gradient(64))
        with pytest.raises(ValueError, match="levels shape"):
            codec.decode(enc, np.zeros(3, dtype=np.int64))


class TestPacketLevel:
    def test_round_trip_untrimmed(self):
        x = gradient(3000, seed=4)
        codec = MultiLevelCodec(root_seed=3, row_size=1024)
        enc = codec.encode(x)
        back, levels = codec.depacketize(codec.packetize(enc, "a", "b"))
        assert np.all(levels == 32)
        assert nmse(x, codec.decode(back, levels)) < 1e-10

    def test_switch_trim_to_8_bits(self):
        x = gradient(3000, seed=4)
        codec = MultiLevelCodec(root_seed=3, row_size=1024)
        packets = codec.packetize(codec.encode(x), "a", "b")
        wire = [packets[0]] + [trim_to_bits(p, 8) for p in packets[1:]]
        back, levels = codec.depacketize(wire)
        assert np.all(levels == 8)
        err = nmse(x, codec.decode(back, levels))
        assert err < 1e-3

    def test_switch_trim_to_1_bit(self):
        x = gradient(3000, seed=4)
        codec = MultiLevelCodec(root_seed=3, row_size=1024)
        packets = codec.packetize(codec.encode(x), "a", "b")
        wire = [packets[0]] + [trim_to_bits(p, 1) for p in packets[1:]]
        back, levels = codec.depacketize(wire)
        assert np.all(levels == 1)
        err = nmse(x, codec.decode(back, levels))
        assert err < 1.0

    def test_mixed_trim_depths_on_wire(self):
        x = gradient(2**13, seed=8)
        codec = MultiLevelCodec(root_seed=3, row_size=1024)
        packets = codec.packetize(codec.encode(x), "a", "b")
        policy = MultiLevelTrim(level_bits=[8, 1], thresholds=[0.7, 0.9])
        rng = np.random.default_rng(2)
        wire = [packets[0]]
        for pkt in packets[1:]:
            fill = rng.random()
            if fill < 0.5:
                wire.append(pkt)
            else:
                wire.append(policy.trim(pkt, fill)[0])
        back, levels = codec.depacketize(wire)
        assert set(np.unique(levels)) <= {1, 8, 32}
        assert nmse(x, codec.decode(back, levels)) < 0.6

    def test_trim_sizes_match_paper_targets(self):
        """Section 5.1: trim to ~25% (8 bits) or ~3% (1 bit) of full size."""
        x = gradient(3000, seed=4)
        codec = MultiLevelCodec(root_seed=3, row_size=1024)
        packets = codec.packetize(codec.encode(x), "a", "b")
        full = packets[1]
        frac8 = trim_to_bits(full, 8).wire_size / full.wire_size
        frac1 = trim_to_bits(full, 1).wire_size / full.wire_size
        assert 0.2 < frac8 < 0.35
        assert frac1 < 0.12

    def test_missing_metadata_rejected(self):
        codec = MultiLevelCodec(root_seed=3, row_size=1024)
        packets = codec.packetize(codec.encode(gradient(100)), "a", "b")
        with pytest.raises(ValueError, match="metadata packet missing"):
            codec.depacketize(packets[1:])

    def test_dropped_packets_get_level_zero(self):
        x = gradient(2**13, seed=9)
        codec = MultiLevelCodec(root_seed=3, row_size=1024)
        packets = codec.packetize(codec.encode(x), "a", "b")
        kept = [packets[0]] + packets[2:]
        back, levels = codec.depacketize(kept)
        dropped = packets[1].grad_header
        lo, hi = dropped.coord_offset, dropped.coord_offset + dropped.coord_count
        assert np.all(levels[lo:hi] == 0)
        assert np.all(levels[hi:] == 32)
