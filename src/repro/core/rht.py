"""RHT-based trimmable codec (paper Section 3.2, DRIVE-style).

The gradient blob is split into rows of ``2^15`` coordinates (each fits
the GPU L1 working set in the paper — here, the rows go a cache-sized
group at a time, :class:`~repro.core.codec.RowGroups`) and each row is
rotated with a Randomized Hadamard Transform.  After the
rotation the coordinates are symmetrically centred near zero, so the
1-bit *sign* of each rotated coordinate is an excellent standalone head:

* head = ``sign(r)`` (1 bit),
* tail = the remaining 31 float bits of ``r`` (exponent + mantissa), so
  untrimmed packets decode losslessly with **zero space overhead**,
* per-row unbiased scale ``f = ‖V‖₂² / ‖R_s(V)‖₁`` travels in the small
  reliable metadata packet.

Decoding builds ``r̂_i = r_i`` for untrimmed coordinates and
``r̂_i = f · sign(r_i)`` for trimmed ones, then applies the inverse RHT.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from ..transforms.prng import derive_seed
from .codec import (
    EncodedGradient,
    GradientCodec,
    RowGroups,
    compose_float32,
    register_codec,
    split_float32,
)
from .metadata import GradientMetadata

__all__ = ["RHTCodec", "DEFAULT_ROW_SIZE", "unbiased_row_scales"]

#: Paper default: rows of 2^15 = 32,768 entries.
DEFAULT_ROW_SIZE = 2**15


def unbiased_row_scales(rows: np.ndarray) -> np.ndarray:
    """Per-row scale ``f = ‖row‖₂² / ‖row‖₁`` (0 for all-zero rows).

    Because the RHT is orthonormal, ``‖R_s(V)‖₂ = ‖V‖₂``, so computing the
    numerator on the rotated row equals the paper's ``‖V‖₂²``.
    """
    scratch = rows * rows
    l2sq = np.add.reduce(scratch, axis=1)
    l1 = np.add.reduce(np.abs(rows, out=scratch), axis=1)
    return np.divide(l2sq, l1, out=np.zeros(l2sq.shape), where=l1 > 0)


def _std(flat: np.ndarray) -> float:
    """``float(np.std(flat))`` for a non-empty float64 vector, spelled out:
    the same reductions in the same order, so the same bits, without the
    generic wrapper's cost (as much as the rest of a small message's
    bookkeeping)."""
    deviations = flat - np.add.reduce(flat) / flat.size
    np.square(deviations, out=deviations)
    return math.sqrt(np.add.reduce(deviations) / flat.size)


@register_codec
class RHTCodec(GradientCodec):
    """Randomized-Hadamard-Transform trimmable codec."""

    name = "rht"
    codec_id = 4
    head_bits = 1
    tail_bits = 31

    def __init__(self, root_seed: int = 0, row_size: int = DEFAULT_ROW_SIZE) -> None:
        self.root_seed = root_seed
        self.row_size = row_size

    def encode(
        self, flat: np.ndarray, *, epoch: int = 0, message_id: int = 0
    ) -> EncodedGradient:
        flat = self._check_finite(flat)
        sigma = _std(flat)
        seed = derive_seed(self.root_seed, epoch, message_id, purpose="rotation")
        groups = RowGroups.rotating(flat.size, self.row_size, seed)
        scales = np.empty(groups.length // groups.width)

        def group(part: slice, rows: np.ndarray, heads: np.ndarray, tails: np.ndarray) -> None:
            scales[groups.rows(part)] = unbiased_row_scales(rows)
            split_float32(rows, heads, tails)

        planes = groups.encode(flat, group)
        metadata = GradientMetadata(
            message_id=message_id,
            epoch=epoch,
            original_length=flat.size,
            row_size=groups.width,
            seed=seed,
            sigma=sigma,
            scale=0.0,
            row_scales=scales,
        )
        return self._encoded(planes, metadata)

    def decode(
        self,
        enc: EncodedGradient,
        trimmed: Optional[np.ndarray] = None,
        missing: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        # Dropped coordinates carry no information: their best estimate in
        # the rotated domain is the (zero) mean, applied before the IRHT.
        self._check_encoded(enc)
        scales = np.asarray(enc.metadata.row_scales, dtype=np.float64)
        return self._decode_groups(
            enc,
            trimmed,
            missing,
            lambda heads, tails: compose_float32(1 - heads, tails),
            RowGroups.received(enc, scales),
        )

    def _head_only(self, enc: EncodedGradient) -> Callable[[slice, np.ndarray], np.ndarray]:
        scales = np.asarray(enc.metadata.row_scales, dtype=np.float64)
        width = enc.metadata.row_size

        def estimate(rows: slice, signs: np.ndarray) -> np.ndarray:
            grid = signs.reshape(-1, width)
            grid *= scales[rows, None]  # ±f of the row
            return signs

        return estimate
