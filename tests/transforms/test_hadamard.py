"""Unit and property tests for the fast Walsh-Hadamard transform."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.transforms import fwht, fwht_inplace, hadamard_matrix, is_power_of_two, next_power_of_two


class TestPowerOfTwoHelpers:
    def test_is_power_of_two_accepts_powers(self):
        for k in range(20):
            assert is_power_of_two(1 << k)

    def test_is_power_of_two_rejects_non_powers(self):
        for n in [0, -1, -4, 3, 5, 6, 7, 9, 12, 100]:
            assert not is_power_of_two(n)

    def test_next_power_of_two(self):
        assert next_power_of_two(1) == 1
        assert next_power_of_two(2) == 2
        assert next_power_of_two(3) == 4
        assert next_power_of_two(17) == 32
        assert next_power_of_two(1024) == 1024

    def test_next_power_of_two_rejects_non_positive(self):
        with pytest.raises(ValueError):
            next_power_of_two(0)
        with pytest.raises(ValueError):
            next_power_of_two(-5)


class TestFwht:
    def test_matches_dense_matrix(self):
        rng = np.random.default_rng(0)
        for d in [1, 2, 4, 8, 16, 64]:
            x = rng.standard_normal(d)
            assert np.allclose(fwht(x), hadamard_matrix(d) @ x)

    def test_involution(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(256)
        assert np.allclose(fwht(fwht(x)), x)

    def test_preserves_norm(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(512)
        assert np.isclose(np.linalg.norm(fwht(x)), np.linalg.norm(x))

    def test_batched_rows_match_individual(self):
        rng = np.random.default_rng(3)
        batch = rng.standard_normal((5, 64))
        together = fwht(batch)
        for i in range(5):
            assert np.allclose(together[i], fwht(batch[i]))

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            fwht(np.zeros(3))
        with pytest.raises(ValueError):
            fwht(np.zeros((2, 6)))

    def test_inplace_modifies_and_returns_same_array(self):
        x = np.ones(8)
        out = fwht_inplace(x)
        assert out is x
        # H @ ones concentrates everything in the first coefficient.
        assert np.isclose(x[0], np.sqrt(8))
        assert np.allclose(x[1:], 0)

    def test_integer_input_promoted(self):
        assert fwht(np.array([1, 1, 1, 1])).dtype == np.float64

    def test_linearity(self):
        rng = np.random.default_rng(4)
        x, y = rng.standard_normal((2, 128))
        assert np.allclose(fwht(2.0 * x + 3.0 * y), 2.0 * fwht(x) + 3.0 * fwht(y))

    def test_hadamard_matrix_is_orthonormal(self):
        for d in [1, 2, 8, 32]:
            h = hadamard_matrix(d)
            assert np.allclose(h @ h.T, np.eye(d))

    def test_hadamard_matrix_rejects_non_power(self):
        with pytest.raises(ValueError):
            hadamard_matrix(12)


def reference_fwht_inplace(x: np.ndarray) -> np.ndarray:
    """The textbook butterfly ``fwht_inplace`` was until PR 17: one sweep
    over the whole array per stage, three fresh temporaries each.  The
    tiled kernel does the same adds and subtracts on the same operands, so
    it is held to ``np.array_equal``, not ``allclose``."""
    d = x.shape[-1]
    h = 1
    while h < d:
        shaped = x.reshape(*x.shape[:-1], d // (2 * h), 2, h)
        a = shaped[..., 0, :].copy()
        b = shaped[..., 1, :]
        shaped[..., 0, :] = a + b
        shaped[..., 1, :] = a - b
        h *= 2
    x *= 1.0 / np.sqrt(d)
    return x


class TestTiledKernelIsBitExact:
    """Shapes on both sides of the tile: rows shorter and longer than it,
    row counts that do not divide into whole groups, extra leading axes."""

    SHAPES = [(1, 1 << k) for k in range(0, 21, 4)] + [
        (33, 1024),
        (3, 5, 64),
        (2, 1 << 17),
        (4096,),
    ]

    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_matches_unblocked_butterfly(self, shape, dtype):
        x = np.random.default_rng(len(shape) + shape[-1]).standard_normal(shape).astype(dtype)
        want = reference_fwht_inplace(x.copy())
        got = fwht_inplace(x)
        assert got is x and got.dtype == dtype
        assert np.array_equal(got, want)

    def test_fortran_ordered_array_is_transformed_in_place(self):
        x = np.asfortranarray(np.random.default_rng(5).standard_normal((33, 256)))
        want = reference_fwht_inplace(np.ascontiguousarray(x))
        assert fwht_inplace(x) is x and x.flags.f_contiguous
        assert np.array_equal(x, want)

    @pytest.mark.parametrize("shape", [(9, 512), (2, 1 << 17), (3, 4, 128)], ids=str)
    def test_strided_view_is_transformed_in_place(self, shape):
        """``a[..., ::2]``: the view changes, the skipped elements do not."""
        base = np.random.default_rng(6).standard_normal(shape)
        before = base.copy()
        view = base[..., ::2]
        want = reference_fwht_inplace(view.copy())
        assert fwht_inplace(view) is view
        assert np.array_equal(base[..., ::2], want)
        assert np.array_equal(base[..., 1::2], before[..., 1::2])

    def test_non_contiguous_leading_axes_are_not_copied(self):
        """Merging strided leading axes would copy and drop the result."""
        base = np.random.default_rng(7).standard_normal((4, 6, 5, 32))
        view = base[::2, ::3, 1:4]
        want = reference_fwht_inplace(view.copy())
        fwht_inplace(view)
        assert np.array_equal(base[::2, ::3, 1:4], want)

    def test_fwht_leaves_its_argument_alone(self):
        x = np.random.default_rng(8).standard_normal((3, 64))
        before = x.copy()
        assert np.array_equal(fwht(x), reference_fwht_inplace(x.copy()))
        assert np.array_equal(x, before)


@settings(max_examples=40)
@given(
    log_d=st.integers(min_value=0, max_value=9),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_fwht_involution_property(log_d, seed):
    """fwht is its own inverse for any power-of-two length."""
    x = np.random.default_rng(seed).standard_normal(1 << log_d)
    assert np.allclose(fwht(fwht(x)), x, atol=1e-9)


@settings(max_examples=40)
@given(
    log_d=st.integers(min_value=0, max_value=9),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_fwht_preserves_inner_products(log_d, seed):
    """Orthonormality: <Hx, Hy> == <x, y>."""
    rng = np.random.default_rng(seed)
    x, y = rng.standard_normal((2, 1 << log_d))
    assert np.isclose(np.dot(fwht(x), fwht(y)), np.dot(x, y), atol=1e-8)
