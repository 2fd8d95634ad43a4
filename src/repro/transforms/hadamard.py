"""Fast Walsh-Hadamard transform (FWHT).

The paper's RHT codec (Section 3.2) uses the ``fast-hadamard-transform``
CUDA kernel; this module is the numpy substitute.  The transform is the
classic in-place butterfly: for a vector of length ``d = 2**k`` it runs in
``O(d log d)`` and is fully vectorized over a batch of rows, which plays
the role of GPU parallelism (each row fits the GPU L1 working set in the
paper; here each row is one numpy slice).

We use the *orthonormal* convention ``H_d = H / sqrt(d)`` where ``H`` is
the {+1,-1} Hadamard matrix, so the transform is an involution:
``fwht(fwht(x)) == x`` and norms are preserved.
"""

from __future__ import annotations

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
#: ``log2 d`` stages; the tile is the same idea for the CPU cache.  Measured
#: flat from 2^14 to 2^16, a third slower at 2^13 and at 2^18.
_TILE = 1 << 15

#: Below this half-width a stage is done as ``h`` strided passes, one per
#: offset inside the half-block: numpy's inner loop would otherwise be only
#: ``h`` elements long (measured on a 2^15 tile: h=2 327 -> 41 us, h=4
#: 159 -> 69 us, h=8 92 -> 102 us).
_SHORT_RUN = 8


def _butterfly_stages(tile: np.ndarray, first: int, stop: int, scratch: np.ndarray) -> None:
    """Run the stages with half-width ``first <= h < stop`` on a 2-D view, in place.

    One add and one subtract per output element; ``scratch`` (at least
    half of ``tile``'s elements) holds the only copy a stage needs.
    """
    rows, d = tile.shape
    h = first
    while h < stop:
        if h < _SHORT_RUN:
            lanes = [(tile[:, j :: 2 * h], tile[:, h + j :: 2 * h]) for j in range(h)]
        else:
            # Splitting the last axis is always a view, whatever the strides.
            pairs = tile.reshape(rows, d // (2 * h), 2, h)
            lanes = [(pairs[:, :, 0, :], pairs[:, :, 1, :])]
        for a, b in lanes:
            kept = scratch[: a.size].reshape(a.shape)
            np.copyto(kept, a)
            np.add(a, b, out=a)
            np.subtract(kept, b, out=b)
        h *= 2


def fwht_inplace(x: np.ndarray) -> np.ndarray:
    """In-place orthonormal FWHT along the last axis.

    The butterfly is run tile by tile — a group of whole rows of at most
    ``_TILE`` elements goes through *all* its stages before the next
    group is touched — instead of sweeping the whole array once per
    stage.  A row longer than a tile does its short stages per tile and
    only the remaining ``log2(d / _TILE)`` stages across the full row.
    Same adds and subtracts on the same operands as the textbook loop
    (kept in ``tests/transforms/test_hadamard.py``), so the output is
    bit-identical to it.

    Args:
        x: float array whose last dimension is a power of two.  Modified
            in place (any strides) and also returned for convenience.

    Returns:
        The same array, transformed.
    """
    d = x.shape[-1]
    if not is_power_of_two(d):
        raise ValueError(f"last dimension must be a power of two, got {d}")
    if x.ndim > 2:
        # Merging leading axes could copy a strided array; walk them instead.
        for sub in x:
            fwht_inplace(sub)
        return x
    matrix = x.reshape(1, d) if x.ndim == 1 else x
    scratch = np.empty(min(matrix.size, _TILE) // 2, dtype=x.dtype)
    scale = 1.0 / np.sqrt(d)
    if d <= _TILE:
        group = _TILE // d
        for start in range(0, len(matrix), group):
            tile = matrix[start : start + group]
            _butterfly_stages(tile, 1, d, scratch)
            tile *= scale
    else:
        for row in matrix:
            for tile in row.reshape(d // _TILE, 1, _TILE):
                _butterfly_stages(tile, 1, _TILE, scratch)
        _butterfly_stages(matrix, _TILE, d, np.empty(matrix.size // 2, dtype=x.dtype))
        x *= scale
    return x


def fwht(x: np.ndarray) -> np.ndarray:
    """Orthonormal FWHT along the last axis (returns a new array).

    Works on any float dtype; integer inputs are promoted to float64.
    """
    out = np.array(x, dtype=np.result_type(x.dtype, np.float32), copy=True)
    return fwht_inplace(out)


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
