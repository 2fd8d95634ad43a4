"""Tests for the RHT/DRIVE-style trimmable codec."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import RHTCodec, SignMagnitudeCodec, nmse, unbiased_row_scales


def gradient(n=4096, seed=0):
    return np.random.default_rng(seed).standard_normal(n).astype(np.float32).astype(np.float64)


def heavy_tailed(n=4096, seed=0):
    """Gradient-like heavy-tailed vector (a few huge coordinates)."""
    rng = np.random.default_rng(seed)
    return rng.standard_t(df=2, size=n)


class TestRowScales:
    def test_gaussian_rows_scale_near_theory(self):
        rng = np.random.default_rng(0)
        rows = rng.standard_normal((8, 65536))
        scales = unbiased_row_scales(rows)
        # E‖r‖² / E|r| for a unit Gaussian is sqrt(pi/2) ≈ 1.2533.
        assert np.allclose(scales, np.sqrt(np.pi / 2), atol=0.02)

    def test_zero_row_gives_zero_scale(self):
        rows = np.zeros((2, 16))
        assert np.array_equal(unbiased_row_scales(rows), [0.0, 0.0])


class TestSigma:
    """The metadata's sigma is ``np.std``'s float, bit for bit: the codec
    spells out the same two reductions instead of calling it."""

    @pytest.mark.parametrize("seed", range(6))
    def test_sigma_is_numpys_std(self, seed):
        rng = np.random.default_rng(seed)
        for flat in (
            heavy_tailed(3224, seed),
            rng.standard_normal(int(rng.integers(1, 70_000))) * 10.0 ** rng.uniform(-30, 30),
            rng.standard_normal(2_000)[::3],  # strided
            np.full(7, 5.0),
            np.array([0.25]),
        ):
            sigma = RHTCodec(root_seed=seed).encode(flat).metadata.sigma
            assert np.float64(sigma).tobytes() == np.std(flat).tobytes()


class TestLossless:
    def test_untrimmed_decode_is_fp32_exact(self):
        x = gradient()
        codec = RHTCodec(root_seed=1, row_size=1024)
        decoded = codec.decode(codec.encode(x))
        # The rotation runs in float64 but the wire format is fp32; the
        # paper claims *zero space overhead* exact encoding of the rotated
        # fp32 values, so error is only fp32 rounding of the rotation.
        assert nmse(x, decoded) < 1e-13

    def test_length_padded_to_rows(self):
        codec = RHTCodec(row_size=256)
        enc = codec.encode(gradient(300))
        assert enc.length == 512
        assert enc.metadata.original_length == 300

    def test_decode_returns_original_length(self):
        codec = RHTCodec(row_size=256)
        x = gradient(300)
        assert codec.decode(codec.encode(x)).shape == (300,)

    def test_small_input_small_row(self):
        codec = RHTCodec(row_size=2**15)
        x = gradient(40)
        enc = codec.encode(x)
        assert enc.metadata.row_size == 64
        assert nmse(x, codec.decode(enc)) < 1e-13


class TestTrimmedDecoding:
    def test_fully_trimmed_error_matches_drive_theory(self):
        """With everything trimmed, per-coordinate NMSE ≈ pi/2 - 1."""
        x = gradient(2**16, seed=5)
        codec = RHTCodec(root_seed=2, row_size=4096)
        enc = codec.encode(x)
        decoded = codec.decode(enc, trimmed=np.ones(enc.length, dtype=bool))
        assert abs(nmse(x, decoded) - (np.pi / 2 - 1)) < 0.05

    def test_partial_trim_scales_error(self):
        x = gradient(2**14, seed=6)
        codec = RHTCodec(root_seed=2, row_size=2048)
        enc = codec.encode(x)
        rng = np.random.default_rng(0)
        errors = []
        for rate in [0.1, 0.5, 1.0]:
            mask = rng.random(enc.length) < rate
            errors.append(nmse(x, codec.decode(enc, trimmed=mask)))
        assert errors[0] < errors[1] < errors[2]

    def test_rht_beats_sign_on_heavy_tails(self):
        """The rotation spreads outliers, so RHT decodes heavy-tailed
        gradients far better than per-coordinate sign quantization."""
        x = heavy_tailed(2**14, seed=7)
        rht = RHTCodec(root_seed=1, row_size=2048)
        sign = SignMagnitudeCodec()
        enc_r = rht.encode(x)
        enc_s = sign.encode(x)
        err_r = nmse(x, rht.decode(enc_r, trimmed=np.ones(enc_r.length, dtype=bool)))
        err_s = nmse(x, sign.decode(enc_s, trimmed=np.ones(enc_s.length, dtype=bool)))
        assert err_r < err_s * 0.75

    def test_missing_rows_decode_to_zero_contribution(self):
        x = gradient(1024)
        codec = RHTCodec(root_seed=3, row_size=1024)
        enc = codec.encode(x)
        decoded = codec.decode(enc, missing=np.ones(enc.length, dtype=bool))
        assert np.allclose(decoded, 0.0)

    def test_trim_and_missing_combine(self):
        x = gradient(2048)
        codec = RHTCodec(root_seed=3, row_size=1024)
        enc = codec.encode(x)
        trimmed = np.zeros(enc.length, dtype=bool)
        missing = np.zeros(enc.length, dtype=bool)
        trimmed[: enc.length // 2] = True
        missing[enc.length // 2 :] = True
        decoded = codec.decode(enc, trimmed=trimmed, missing=missing)
        assert np.all(np.isfinite(decoded))
        assert nmse(x, decoded) < 2.0


class TestValidation:
    def test_decode_rejects_wrong_codec(self):
        enc = SignMagnitudeCodec().encode(gradient(64))
        with pytest.raises(ValueError, match="cannot decode"):
            RHTCodec().decode(enc)

    def test_decode_rejects_bad_mask(self):
        codec = RHTCodec(row_size=64)
        enc = codec.encode(gradient(64))
        with pytest.raises(ValueError, match="mask shape"):
            codec.decode(enc, trimmed=np.zeros(3, dtype=bool))

    @pytest.mark.parametrize("as_list", [False, True])
    def test_decode_rejects_wrong_scale_count(self, as_list):
        """The error formats the converted array: scales that arrived as a
        list used to die on ``list.size`` before the message was built."""
        codec = RHTCodec(row_size=64)
        x = gradient(256)
        enc = codec.encode(x)
        whole = codec.decode(enc)
        short = enc.metadata.row_scales[:3]
        enc.metadata.row_scales = list(short) if as_list else short
        for trimmed in (None, np.ones(256, dtype=bool)):
            with pytest.raises(ValueError, match="3 row scales cannot cover 4 rows of 64"):
                codec.decode(enc, trimmed=trimmed)
        enc.metadata.row_scales = list(codec.encode(x).metadata.row_scales)
        assert np.array_equal(codec.decode(enc), whole)
        assert np.isfinite(codec.decode(enc, trimmed=np.ones(256, dtype=bool))).all()

    def test_decode_rejects_row_size_that_is_no_power_of_two(self):
        codec = RHTCodec(row_size=64)
        enc = codec.encode(gradient(192))
        enc.metadata.row_size = 48  # 4 rows of 48: passes the multiple check
        enc.metadata.row_scales = np.ones(4)
        with pytest.raises(ValueError, match="power of two"):
            codec.decode(enc)

    def test_epoch_message_change_rotation(self):
        codec = RHTCodec(root_seed=0, row_size=256)
        x = gradient(256)
        a = codec.encode(x, epoch=1, message_id=1)
        b = codec.encode(x, epoch=1, message_id=2)
        assert a.metadata.seed != b.metadata.seed
        assert not np.array_equal(a.heads, b.heads)


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=2000),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_rht_untrimmed_round_trip_property(n, seed):
    """Untrimmed RHT decode recovers any vector to fp32 precision."""
    x = np.random.default_rng(seed).standard_normal(n)
    codec = RHTCodec(root_seed=seed, row_size=512)
    decoded = codec.decode(codec.encode(x))
    assert nmse(x, decoded) < 1e-12


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    rate=st.floats(min_value=0.0, max_value=1.0),
)
def test_rht_trimmed_error_bounded_property(seed, rate):
    """Trimmed-decode NMSE never exceeds the full-trim DRIVE bound (+slack)."""
    x = np.random.default_rng(seed).standard_normal(4096)
    codec = RHTCodec(root_seed=seed, row_size=1024)
    enc = codec.encode(x)
    mask = np.random.default_rng(seed + 1).random(enc.length) < rate
    err = nmse(x, codec.decode(enc, trimmed=mask))
    assert err <= (np.pi / 2 - 1) + 0.25
