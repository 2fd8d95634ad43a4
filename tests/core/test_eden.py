"""Tests for the EDEN-style multi-bit trimmable codec."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import EdenCodec, codec_by_name, lloyd_max_centroids, nmse
from repro.core import decode_packets, packetize


def gradient(n=2**13, seed=0):
    return np.random.default_rng(seed).standard_normal(n)


class TestLloydMaxTables:
    def test_one_bit_is_mean_of_half_normal(self):
        centroids = lloyd_max_centroids(1)
        assert np.allclose(np.abs(centroids), np.sqrt(2 / np.pi), atol=1e-6)

    def test_symmetric_and_sorted(self):
        for bits in range(1, 9):
            c = lloyd_max_centroids(bits)
            assert c.size == 1 << bits
            assert np.allclose(c, -c[::-1])
            assert np.all(np.diff(c) > 0)

    def test_invalid_bits(self):
        with pytest.raises(ValueError):
            lloyd_max_centroids(0)
        with pytest.raises(ValueError):
            lloyd_max_centroids(9)

    def test_quantizer_mse_matches_theory(self):
        """Lloyd-Max MSE for N(0,1): 1-bit ~0.3634, 2-bit ~0.1175."""
        rng = np.random.default_rng(1)
        x = rng.standard_normal(200_000)
        for bits, expected in [(1, 0.3634), (2, 0.1175), (3, 0.03454)]:
            centroids = lloyd_max_centroids(bits)
            boundaries = (centroids[1:] + centroids[:-1]) / 2
            quantized = centroids[np.searchsorted(boundaries, x)]
            mse = np.mean((x - quantized) ** 2)
            assert mse == pytest.approx(expected, rel=0.05)


class TestEdenCodec:
    def test_registered(self):
        codec = codec_by_name("eden", root_seed=1, head_bits=2)
        assert isinstance(codec, EdenCodec)
        assert codec.head_bits == 2

    def test_untrimmed_near_exact(self):
        x = gradient()
        for bits in [1, 4, 8]:
            codec = EdenCodec(root_seed=1, head_bits=bits, row_size=1024)
            assert nmse(x, codec.decode(codec.encode(x))) < 1e-10

    def test_trimmed_quality_improves_with_head_bits(self):
        x = gradient(2**14, seed=3)
        errors = []
        for bits in [1, 2, 4, 8]:
            codec = EdenCodec(root_seed=1, head_bits=bits, row_size=2048)
            enc = codec.encode(x)
            errors.append(nmse(x, codec.decode(enc, trimmed=np.ones(enc.length, bool))))
        assert errors == sorted(errors, reverse=True)
        assert errors[0] == pytest.approx(1 - 2 / np.pi, abs=0.03)  # 1-bit MMSE
        assert errors[-1] < 1e-3  # 8-bit heads are excellent

    def test_one_bit_head_beats_drive_scale(self):
        """Eden's MMSE decode (sqrt(2/pi)·σ) has lower NMSE than the RHT
        codec's unbiased DRIVE scale at full trim."""
        from repro.core import RHTCodec

        x = gradient(2**14, seed=5)
        eden = EdenCodec(root_seed=2, head_bits=1, row_size=2048)
        rht = RHTCodec(root_seed=2, row_size=2048)
        e_enc = eden.encode(x)
        r_enc = rht.encode(x)
        e_err = nmse(x, eden.decode(e_enc, trimmed=np.ones(e_enc.length, bool)))
        r_err = nmse(x, rht.decode(r_enc, trimmed=np.ones(r_enc.length, bool)))
        assert e_err < r_err

    def test_packet_path_any_head_width(self):
        x = gradient(2**13, seed=7)
        for bits in [1, 3, 8]:
            codec = EdenCodec(root_seed=4, head_bits=bits, row_size=1024)
            packets = packetize(codec.encode(x), "a", "b")
            wire = [packets[0]] + [p.trim() for p in packets[1:]]
            decoded = decode_packets(wire, codec)
            assert np.all(np.isfinite(decoded))
            assert nmse(x, decoded) < 0.5

    def test_registry_decode_adapts_head_width(self):
        """decode_packets reconstructs the codec from the wire id with
        default parameters; decode must still honor the message's P."""
        x = gradient(2**12, seed=8)
        codec = EdenCodec(root_seed=4, head_bits=2, row_size=1024)
        packets = packetize(codec.encode(x), "a", "b")
        decoded = decode_packets(packets)  # no codec passed
        assert nmse(x, decoded) < 1e-10

    def test_missing_decodes_to_zero_contribution(self):
        x = gradient(1024)
        codec = EdenCodec(root_seed=1, head_bits=4, row_size=1024)
        enc = codec.encode(x)
        decoded = codec.decode(enc, missing=np.ones(enc.length, bool))
        assert np.allclose(decoded, 0.0)

    def test_zero_gradient(self):
        codec = EdenCodec(root_seed=1, head_bits=4, row_size=64)
        x = np.zeros(64)
        enc = codec.encode(x)
        decoded = codec.decode(enc, trimmed=np.ones(enc.length, bool))
        assert np.all(np.isfinite(decoded))

    def test_invalid_head_bits(self):
        with pytest.raises(ValueError):
            EdenCodec(head_bits=0)
        with pytest.raises(ValueError):
            EdenCodec(head_bits=9)


@settings(max_examples=15, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=1500),
    bits=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
# A coordinate ~4.8 sigma_r out at P = 1: its residual overran a +-4 sigma_r
# tail span and was clipped (NMSE 4.0e-6).
@example(n=879, bits=1, seed=1739)
def test_eden_untrimmed_round_trip_property(n, bits, seed):
    """Untrimmed Eden decode recovers any vector at any head width."""
    x = np.random.default_rng(seed).standard_normal(n)
    codec = EdenCodec(root_seed=seed, head_bits=bits, row_size=512)
    assert nmse(x, codec.decode(codec.encode(x))) < 1e-8
