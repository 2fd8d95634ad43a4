"""The Randomized Hadamard Transform's shared random diagonal.

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

The codecs zero-pad a vector to whole rows and rotate them a row group
at a time, ``D_s`` here and ``H`` by :func:`~repro.transforms.hadamard.fwht_inplace`
(``repro.core.codec.RowGroups``); the original length travels with the
metadata so the receiver can truncate.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .prng import shared_generator

__all__ = ["random_signs"]


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
