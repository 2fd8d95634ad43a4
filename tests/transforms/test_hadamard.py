"""Unit and property tests for the fast Walsh-Hadamard transform."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.transforms import fwht, fwht_inplace, hadamard_matrix, is_power_of_two, next_power_of_two
from repro.transforms.hadamard import _TILE


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

    @pytest.mark.parametrize("dtype", [np.int8, np.int16, np.uint8, np.uint16, np.int64, bool])
    def test_every_integer_width_is_promoted_to_float64(self, dtype):
        """``result_type(int16, float32)`` is float32; the docstring says float64."""
        x = np.array([1, 0, 1, 1], dtype=dtype)
        out = fwht(x)
        assert out.dtype == np.float64
        assert np.array_equal(out, fwht(x.astype(np.float64)))

    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    def test_float_dtypes_are_kept_and_half_precision_widened(self, dtype):
        assert fwht(np.ones(4, dtype=dtype)).dtype == np.result_type(dtype, np.float32)

    @pytest.mark.parametrize("dtype", [np.int64, np.uint8, bool])
    def test_inplace_rejects_a_non_floating_dtype_before_writing(self, dtype):
        """The scale multiply used to raise *after* the butterfly had run:
        ``np.arange(8)`` came back as ``[28 -4 -8 0 -16 0 0 0]``."""
        x = np.arange(8).astype(dtype)
        before = x.copy()
        with pytest.raises(TypeError, match=str(x.dtype)):
            fwht_inplace(x)
        assert np.array_equal(x, before)

    @pytest.mark.parametrize("shape", [(8,), (3, 64), (2, 1 << 16)], ids=str)
    def test_inplace_on_a_read_only_array_fails_before_writing(self, shape):
        base = np.random.default_rng(9).standard_normal(shape)
        x = base.copy()
        x.setflags(write=False)
        with pytest.raises(ValueError, match="read-only"):
            fwht_inplace(x)
        assert np.array_equal(x, base)

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


def _bits(x: np.ndarray) -> np.ndarray:
    """The array's bit patterns: NaN payloads and the sign of zero compare too."""
    return np.ascontiguousarray(x).view({4: np.uint32, 8: np.uint64}[x.itemsize])


def _row_counts(d: int) -> list[int]:
    """Row counts around the tile's row-group boundary for rows of ``d``."""
    group = max(_TILE // d, 1)
    return sorted({0, 1, group - 1, group, group + 1, 2 * group + 3, 13})


class TestConstantGeometryOracleGrid:
    """The constant-geometry kernel against the textbook loop, on the bits.

    Mutations this grid was checked to catch (each fails it): sums and
    differences written to swapped halves; the copy-out transpose skipped
    for r > 1; one step too few when d > tile; scaling before instead of
    after the stages.
    """

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("log_d", range(18))
    def test_every_length_and_row_count_around_the_group(self, log_d, dtype):
        d = 1 << log_d
        for rows in _row_counts(d):
            x = np.random.default_rng(31 * log_d + rows).standard_normal((rows, d)).astype(dtype)
            want = reference_fwht_inplace(x.copy())
            got = fwht_inplace(x)
            assert got is x and got.dtype == dtype
            assert np.array_equal(_bits(got), _bits(want)), (rows, d)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("shape", [(11, 4096), (3, 1 << 15), (2, 1 << 16)], ids=str)
    def test_fortran_sliced_and_reversed_inputs(self, shape, dtype):
        base = np.random.default_rng(shape[0]).standard_normal((shape[0] + 2, 2 * shape[1]))
        base = base.astype(dtype)
        views = {
            "F-ordered": lambda a: np.asfortranarray(a[: shape[0], : shape[1]]),
            "column slice": lambda a: a[1:-1, shape[1] // 2 : shape[1] // 2 + shape[1]],
            "strided columns": lambda a: a[:-2, ::2],
            "reversed columns": lambda a: a[2:, ::-2],
            "reversed rows": lambda a: a[::-1][2:, : shape[1]],
        }
        for name, cut in views.items():
            array = base.copy()
            view = cut(array)
            assert view.shape == shape, name
            outside = np.ones(array.shape, dtype=bool)
            cut(outside)[...] = False
            want = reference_fwht_inplace(view.copy())
            assert fwht_inplace(view) is view
            assert np.array_equal(_bits(view), _bits(want)), name
            if view.base is not None and np.shares_memory(view, array):
                assert np.array_equal(array[outside], base[outside]), name

    @pytest.mark.parametrize("shape", [(3, 5, 64), (2, 3, 1 << 15), (2, 2, 2, 1 << 16)], ids=str)
    def test_leading_axes_are_walked(self, shape):
        x = np.random.default_rng(len(shape)).standard_normal(shape)
        want = reference_fwht_inplace(x.copy())
        assert np.array_equal(_bits(fwht_inplace(x)), _bits(want))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("shape", [(9, 4096), (5, 1 << 15), (5, 1 << 16)], ids=str)
    def test_special_values_keep_their_bits(self, shape, dtype):
        """NaN, ±inf, −0.0 and subnormals go through the same adds in the
        same order, so even the NaN payloads and zero signs agree."""
        rng = np.random.default_rng(shape[1])
        x = rng.standard_normal(shape).astype(dtype)
        tiny = np.finfo(dtype).smallest_subnormal
        x[0] = -0.0  # every sum and difference is a signed zero
        x[1, rng.integers(shape[1])] = np.inf  # a row of ±inf
        x[2, rng.integers(shape[1])] = np.nan  # a row of NaN
        x[3] = rng.integers(-3, 4, size=shape[1]) * tiny  # subnormals (and both zeros)
        x[4, [5, shape[1] - 7]] = np.inf, -np.inf  # inf - inf: NaN and inf mixed
        with np.errstate(invalid="ignore"):
            want = reference_fwht_inplace(x.copy())
            got = fwht_inplace(x)
        assert np.isnan(want[2]).all() and np.isinf(want[1]).all()
        assert np.isnan(want[4]).any() and np.isinf(want[4]).any()
        assert np.array_equal(_bits(got), _bits(want))

    @pytest.mark.parametrize("shape", [(5, 256), (3, 1 << 15), (1, 1 << 17)], ids=str)
    def test_fwht_leaves_a_read_only_input_untouched(self, shape):
        x = np.random.default_rng(shape[0]).standard_normal(shape)
        before = x.copy()
        x.setflags(write=False)
        out = fwht(x)
        assert out.flags.writeable and not np.shares_memory(out, x)
        assert np.array_equal(_bits(out), _bits(reference_fwht_inplace(before.copy())))
        assert np.array_equal(x, before)

    @pytest.mark.parametrize("dtype, atol", [(np.float64, 1e-9), (np.float32, 1e-3)])
    @pytest.mark.parametrize("shape", [(7, 1), (9, 4096), (3, 1 << 15), (2, 1 << 17)], ids=str)
    def test_involution(self, shape, dtype, atol):
        x = np.random.default_rng(shape[1]).standard_normal(shape).astype(dtype)
        assert np.allclose(fwht(fwht(x)), x, atol=atol)


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
