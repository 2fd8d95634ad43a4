"""Fast Walsh-Hadamard transform (FWHT).

The paper's RHT codec (Section 3.2) uses the ``fast-hadamard-transform``
CUDA kernel; this module is the numpy substitute.  The transform is the
classic butterfly in its constant-geometry form (every stage is the same
two flat passes, see :func:`fwht_inplace`): for a vector of length
``d = 2**k`` it runs in ``O(d log d)`` and is fully vectorized over a
batch of rows, which plays the role of GPU parallelism (each row fits the
GPU L1 working set in the paper; here a cache-sized tile of rows does).

We use the *orthonormal* convention ``H_d = H / sqrt(d)`` where ``H`` is
the {+1,-1} Hadamard matrix, so the transform is an involution:
``fwht(fwht(x)) == x`` and norms are preserved.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "is_power_of_two",
    "next_power_of_two",
    "fwht",
    "fwht_inplace",
    "hadamard_matrix",
]


def is_power_of_two(n: int) -> bool:
    """True when ``n`` is a positive power of two."""
    return n > 0 and (n & (n - 1)) == 0


def next_power_of_two(n: int) -> int:
    """Smallest power of two >= n (n must be positive)."""
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    return 1 << (n - 1).bit_length()


#: Elements one butterfly tile holds (2^15 float64 = 256 kB).  §3.2 picks
#: 2^15-coordinate rows so that a row stays in fast memory for all of its
#: ``log2 d`` stages; the tile is the same idea for the CPU cache (the two
#: ping/pong buffers are 512 kB).  Measured flat from 2^13 to 2^15; 2^16 /
#: 2^17 / 2^18 are 1.1x / 1.8x / 3x slower (numpy 2.4.6, 4 MB L2).
_TILE = 1 << 15


def _shuffle(tile: np.ndarray, steps: int, ping: np.ndarray, pong: np.ndarray) -> np.ndarray:
    """Butterfly the ``steps`` lowest index bits of ``tile``'s rows; returns a flat buffer.

    Constant geometry: ``tile`` (any strides) is copied into a flat buffer
    and every step writes the neighbour sums ``x[2j] + x[2j+1]`` to the
    first half and the differences ``x[2j] - x[2j+1]`` to the second half
    of the other buffer.  A step butterflies the lowest index bit and
    rotates the index right, so step ``s`` pairs exactly the operands the
    textbook stage ``h = 2**s`` does, and after ``log2 d`` steps element
    ``(q, c)`` of an ``r x d`` tile sits at flat position ``c * r + q``.
    Every pass is 1-D (numpy's trivial-loop path whatever the stage).
    """
    n = tile.size
    half = n // 2
    src, dst = ping[:n], pong[:n]
    np.copyto(src.reshape(tile.shape), tile)
    step = (src[0::2], src[1::2], dst[:half], dst[half:])
    back = (dst[0::2], dst[1::2], src[:half], src[half:])
    for _ in range(steps):
        even, odd, sums, differences = step
        np.add(even, odd, out=sums)
        np.subtract(even, odd, out=differences)
        step, back = back, step
    return dst if steps % 2 else src


def fwht_inplace(x: np.ndarray) -> np.ndarray:
    """In-place orthonormal FWHT along the last axis.

    The butterfly is run tile by tile — a group of whole rows of at most
    ``_TILE`` elements goes through *all* its stages (:func:`_shuffle`)
    in two flat ping/pong buffers before the next group is touched, and
    is scaled on the way back.  A row longer than a tile shuffles each
    ``_TILE`` sub-block through its ``log2 _TILE`` steps, which returns
    it to natural order, and runs only the remaining ``log2(d / _TILE)``
    stages across the row itself.  Same adds and subtracts on the same
    operands in the same stage order as the textbook loop (kept in
    ``tests/transforms/test_hadamard.py``), so the output is
    bit-identical to it.

    Args:
        x: float array whose last dimension is a power of two.  Modified
            in place (any strides) and also returned for convenience.

    Returns:
        The same array, transformed.

    Raises:
        TypeError: ``x`` is not of a floating dtype (nothing is written;
            :func:`fwht` promotes integers).
    """
    d = x.shape[-1]
    if not is_power_of_two(d):
        raise ValueError(f"last dimension must be a power of two, got {d}")
    if x.dtype.kind not in "fc":  # np.inexact, without issubdtype's cost per call
        raise TypeError(f"fwht_inplace needs a floating dtype, got {x.dtype}; fwht() promotes")
    if x.ndim > 2:
        # Merging leading axes could copy a strided array; walk them instead.
        for sub in x:
            fwht_inplace(sub)
        return x
    matrix = x.reshape(1, d) if x.ndim == 1 else x
    ping, pong = np.empty((2, min(matrix.size, _TILE)), dtype=x.dtype)
    scale = np.float64(1.0 / math.sqrt(d))  # 1.0 / np.sqrt(d), without its ufunc call
    if d <= _TILE:
        group = _TILE // d
        for start in range(0, len(matrix), group):
            tile = matrix[start : start + group]
            out = _shuffle(tile, d.bit_length() - 1, ping, pong)
            np.multiply(out.reshape(d, len(tile)).T, scale, out=tile)
        return x
    kept = np.empty(d // 2, dtype=x.dtype)
    for row in matrix:
        for tile in row.reshape(d // _TILE, _TILE):
            np.copyto(tile, _shuffle(tile, _TILE.bit_length() - 1, ping, pong))
        h = _TILE
        while h < d:  # runs of h >= _TILE contiguous elements: numpy's fast path already
            pairs = row.reshape(d // (2 * h), 2, h)
            a, b = pairs[:, 0], pairs[:, 1]
            held = kept.reshape(a.shape)
            np.copyto(held, a)
            np.add(a, b, out=a)
            np.subtract(held, b, out=b)
            h *= 2
        row *= scale
    return x


def fwht(x: np.ndarray) -> np.ndarray:
    """Orthonormal FWHT along the last axis (returns a new array).

    Works on any float dtype (half precision is widened to float32);
    integer inputs are promoted to float64.
    """
    floating = np.issubdtype(x.dtype, np.inexact)
    dtype = np.result_type(x.dtype, np.float32) if floating else np.float64
    return fwht_inplace(np.array(x, dtype=dtype, copy=True))


def hadamard_matrix(d: int) -> np.ndarray:
    """Dense orthonormal Hadamard matrix of size ``d`` (power of two).

    Only used by tests and documentation examples — the transform itself
    never materializes the matrix.
    """
    if not is_power_of_two(d):
        raise ValueError(f"d must be a power of two, got {d}")
    h = np.array([[1.0]])
    while h.shape[0] < d:
        h = np.block([[h, h], [h, -h]])
    return h / np.sqrt(d)
