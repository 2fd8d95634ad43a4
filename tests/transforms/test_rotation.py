"""Tests for the randomized Hadamard rotation layer and the codecs'
rotation of padded rows, a row group at a time."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import RowGroups, codec_by_name
from repro.transforms import random_signs


class TestRandomSigns:
    def test_deterministic(self):
        assert np.array_equal(random_signs(64, 5), random_signs(64, 5))

    def test_values_are_plus_minus_one(self):
        signs = random_signs(1000, 7)
        assert set(np.unique(signs)) <= {-1.0, 1.0}

    def test_roughly_balanced(self):
        signs = random_signs(10000, 11)
        assert abs(signs.mean()) < 0.05

    def test_seed_changes_signs(self):
        assert not np.array_equal(random_signs(128, 1), random_signs(128, 2))


def rotate_rows(flat, row_size, seed):
    """The rows the codecs' row-group pass rotates ``flat`` into, and its plan."""
    groups = RowGroups.rotating(flat.size, row_size, seed)
    rows = np.empty(groups.length)

    def keep(part, values, heads, tails):
        assert values.shape == (values.size // groups.width, groups.width)
        rows[part] = values.reshape(-1)

    groups.encode(flat, keep)
    return groups, rows.reshape(-1, groups.width)


def unrotate_rows(groups, rows):
    def put(part, values):
        values[...] = rows.reshape(-1)[part]

    return groups.decode(put)


class TestRhtInverse:
    def test_irht_inverts_rht(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(256)
        assert np.allclose(unrotate_rows(*rotate_rows(x, 256, seed=9)), x)

    def test_wrong_seed_does_not_invert(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(256)
        _, rows = rotate_rows(x, 256, seed=9)
        assert not np.allclose(unrotate_rows(RowGroups.rotating(x.size, 256, 10), rows), x)

    def test_norm_preserved(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(128)
        assert np.isclose(np.linalg.norm(rotate_rows(x, 128, 3)[1]), np.linalg.norm(x))

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            RowGroups.rotating(10, 10, 0)
        encoded = codec_by_name("rht", row_size=64).encode(np.ones(100))
        encoded.metadata.row_size = 48
        with pytest.raises(ValueError, match="not a multiple of row 48"):
            RowGroups.received(encoded)

    def test_gaussianizes_spiky_input(self):
        """A 1-sparse vector becomes dense and symmetric after RHT."""
        x = np.zeros(1024)
        x[17] = 100.0
        _, r = rotate_rows(x, 1024, seed=3)
        # Every rotated coordinate has the same magnitude for 1-sparse input.
        assert np.allclose(np.abs(r), 100.0 / np.sqrt(1024))
        assert abs(np.mean(np.sign(r))) < 0.2


class TestRotateRows:
    def test_round_trip_exact_multiple(self):
        rng = np.random.default_rng(3)
        flat = rng.standard_normal(64 * 4)
        groups, rows = rotate_rows(flat, row_size=64, seed=1)
        assert rows.shape == (4, 64)
        assert np.allclose(unrotate_rows(groups, rows), flat)

    def test_round_trip_with_padding(self):
        rng = np.random.default_rng(4)
        flat = rng.standard_normal(100)  # 100 < 128, single padded row
        groups, rows = rotate_rows(flat, row_size=64, seed=1)
        assert groups.n == 100
        assert np.allclose(unrotate_rows(groups, rows), flat)

    def test_short_input_uses_small_row(self):
        flat = np.arange(5, dtype=float)
        groups, rows = rotate_rows(flat, row_size=2**15, seed=0)
        assert groups.width == 8  # next power of two, not 32768
        assert np.allclose(unrotate_rows(groups, rows), flat)

    def test_partial_last_row_padded(self):
        rng = np.random.default_rng(5)
        flat = rng.standard_normal(64 + 10)
        groups, rows = rotate_rows(flat, row_size=64, seed=2)
        assert rows.shape == (2, 64)
        assert np.allclose(unrotate_rows(groups, rows), flat)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            rotate_rows(np.zeros(0), 64, 0)

    def test_rejects_bad_row_size(self):
        with pytest.raises(ValueError):
            rotate_rows(np.ones(10), 100, 0)

    def test_rows_norm_matches_input(self):
        rng = np.random.default_rng(6)
        flat = rng.standard_normal(256)
        _, rows = rotate_rows(flat, row_size=64, seed=3)
        assert np.isclose(np.linalg.norm(rows), np.linalg.norm(flat))


@settings(max_examples=40)
@given(
    n=st.integers(min_value=1, max_value=700),
    log_row=st.integers(min_value=2, max_value=8),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_rotate_rows_round_trip_property(n, log_row, seed):
    """Rotating rows and back is lossless for any length and row size."""
    flat = np.random.default_rng(seed).standard_normal(n)
    groups, rows = rotate_rows(flat, row_size=1 << log_row, seed=seed)
    assert np.allclose(unrotate_rows(groups, rows), flat, atol=1e-9)
