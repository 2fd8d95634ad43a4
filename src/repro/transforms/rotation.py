"""Randomized Hadamard Transform (RHT) and its inverse.

The RHT rotates a vector ``x`` by ``R_s(x) = H D_s x`` where ``H`` is the
orthonormal Hadamard matrix and ``D_s`` a diagonal of i.i.d. random signs
drawn from seed ``s``.  After the rotation the coordinates are
approximately i.i.d. zero-mean Gaussian regardless of the input's shape,
which is what makes 1-bit (sign) quantization accurate (DRIVE, the basis
of the paper's Section 3.2 codec).

Because both ``H`` and ``D_s`` are involutions up to transposition, the
inverse is simply ``R_s^{-1}(y) = D_s H y`` — the receiver only needs the
seed ``s``, which the paper derives from (epoch, message id) on every
worker (see :mod:`repro.transforms.prng`).

Vectors whose length is not a power of two are zero-padded; the padded
length travels with the metadata so the receiver can truncate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .hadamard import fwht_inplace, is_power_of_two, next_power_of_two
from .prng import shared_generator

__all__ = ["random_signs", "rht", "irht", "RotatedRows", "rotate_rows", "unrotate_rows"]


@lru_cache(maxsize=8)
def _cached_signs(d: int, seed: int) -> np.ndarray:
    """Frozen ±1 diagonal for ``(d, seed)``.

    Every worker's encode and decode of one collective message rebuild
    the identical diagonal from the shared seed; caching it (read-only,
    so a hit can be used in-place safely) leaves one PRNG draw per
    message.  Sized to the messages in flight at once — one per
    concurrent job, four in the largest cluster preset — since a seed is
    never derived again once its wave has been decoded.
    """
    gen = shared_generator(seed, purpose="rotation")
    signs = gen.integers(0, 2, size=d).astype(np.float64) * 2.0 - 1.0
    signs.setflags(write=False)
    return signs


def random_signs(d: int, seed: int) -> np.ndarray:
    """Deterministic ±1 diagonal of length ``d`` for seed ``seed``.

    The returned array is cached and marked read-only; copy before
    mutating.
    """
    return _cached_signs(d, seed)


def rht(x: np.ndarray, seed: int) -> np.ndarray:
    """Apply the randomized Hadamard rotation along the last axis.

    The last dimension must be a power of two (callers pad first; see
    :func:`rotate_rows` for the padding version).
    """
    d = x.shape[-1]
    if not is_power_of_two(d):
        raise ValueError(f"RHT length must be a power of two, got {d}")
    signs = random_signs(d, seed)
    out = np.asarray(x, dtype=np.float64) * signs
    return fwht_inplace(out)


def irht(y: np.ndarray, seed: int) -> np.ndarray:
    """Invert :func:`rht` (same seed)."""
    d = y.shape[-1]
    if not is_power_of_two(d):
        raise ValueError(f"IRHT length must be a power of two, got {d}")
    signs = random_signs(d, seed)
    out = np.array(y, dtype=np.float64, copy=True)
    fwht_inplace(out)
    out *= signs
    return out


@dataclass(frozen=True)
class RotatedRows:
    """A gradient blob rotated row-by-row.

    Attributes:
        rows: 2-D array (num_rows, row_size) of rotated coordinates.
        original_length: length of the flat input before padding.
        row_size: power-of-two row width used for the per-row transform.
        seed: rotation seed shared by sender and receiver.
    """

    rows: np.ndarray
    original_length: int
    row_size: int
    seed: int


def rotate_rows(flat: np.ndarray, row_size: int, seed: int) -> RotatedRows:
    """Split ``flat`` into rows of ``row_size`` and RHT each row.

    This is the paper's key RHT optimization (Section 3.2): rather than
    rotating the whole 25 MB message, split it into rows of e.g. 2^15
    entries that fit in GPU L1, and rotate rows independently (and, on a
    GPU, in parallel — here, in one batched numpy call).

    The final partial row is zero-padded to ``row_size``.
    """
    flat = np.asarray(flat, dtype=np.float64).reshape(-1)
    n = flat.size
    if n == 0:
        raise ValueError("cannot rotate an empty vector")
    width, num_rows = _row_plan(n, row_size)
    if n < num_rows * width:
        padded = np.zeros(num_rows * width, dtype=np.float64)
        padded[:n] = flat
        flat = padded
    rotated = rht(flat.reshape(num_rows, width), seed)
    return RotatedRows(rows=rotated, original_length=n, row_size=width, seed=seed)


def _row_plan(n: int, row_size: int) -> tuple[int, int]:
    """(row width, row count) plan for an ``n``-coordinate blob.

    Short blobs use a single row padded to the next power of two, so tiny
    layers do not pay for a full ``row_size`` transform.
    """
    if not is_power_of_two(row_size):
        raise ValueError(f"row_size must be a power of two, got {row_size}")
    if n < row_size:
        return next_power_of_two(n), 1
    return row_size, -(-n // row_size)  # ceil division


def unrotate_rows(rotated: RotatedRows) -> np.ndarray:
    """Invert :func:`rotate_rows`, returning the flat vector (unpadded)."""
    rows = irht(rotated.rows, rotated.seed)
    return rows.reshape(-1)[: rotated.original_length]
