"""RHT-based trimmable codec (paper Section 3.2, DRIVE-style).

The gradient blob is split into rows of ``2^15`` coordinates (each fits
the GPU L1 working set in the paper — here, one batched numpy transform)
and each row is rotated with a Randomized Hadamard Transform.  After the
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
from typing import Optional

import numpy as np

from ..transforms.hadamard import fwht_inplace
from ..transforms.prng import derive_seed
from ..transforms.rotation import random_signs, rotate_rows
from .codec import (
    EncodedGradient,
    GradientCodec,
    compose_float32,
    float32_rest_bits,
    float32_sign_bits,
    register_codec,
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
    return np.divide(l2sq, l1, out=np.zeros_like(l2sq), where=l1 > 0)


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
        seed = derive_seed(self.root_seed, epoch, message_id, purpose="rotation")
        rotated = rotate_rows(flat, self.row_size, seed)
        rows = rotated.rows
        scales = unbiased_row_scales(rows)
        coords = rows.reshape(-1)
        image = coords.astype(np.float32)
        heads = float32_sign_bits(image)
        heads ^= np.uint32(1)
        tails = float32_rest_bits(image)
        metadata = GradientMetadata(
            message_id=message_id,
            epoch=epoch,
            original_length=flat.size,
            row_size=rotated.row_size,
            seed=seed,
            sigma=_std(flat),
            scale=0.0,
            row_scales=scales,
        )
        return EncodedGradient(
            codec_id=self.codec_id,
            head_bits=self.head_bits,
            tail_bits=self.tail_bits,
            length=coords.size,
            heads=heads,
            tails=tails,
            metadata=metadata,
        )

    def decode(
        self,
        enc: EncodedGradient,
        trimmed: Optional[np.ndarray] = None,
        missing: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        self._check_encoded(enc)
        mask = self._trimmed_mask(enc, trimmed)
        lost = self._missing_mask(enc, missing)
        meta = enc.metadata
        width = meta.row_size
        if width <= 0 or enc.length % width != 0:
            raise ValueError(f"encoded length {enc.length} not a multiple of row {width}")
        scales = np.asarray(meta.row_scales, dtype=np.float64)
        num_rows = enc.length // width
        if scales.size != num_rows:
            raise ValueError(
                f"{scales.size} row scales cannot cover {num_rows} rows of {width}"
            )
        exact = compose_float32(1 - enc.heads, enc.tails)
        # Dropped coordinates carry no information: their best estimate in
        # the rotated domain is the (zero) mean, applied before the IRHT.
        # r_hat is this call's own array, so the inverse rotation (irht's
        # two steps) runs on it in place.
        r_hat = self._select(enc, mask, lost, exact).reshape(num_rows, width)
        fwht_inplace(r_hat)
        r_hat *= random_signs(width, meta.seed)
        return r_hat.reshape(-1)[: meta.original_length]

    def _head_only(self, enc: EncodedGradient, signs: np.ndarray) -> np.ndarray:
        scales = np.asarray(enc.metadata.row_scales, dtype=np.float64)
        rows = signs.reshape(scales.size, -1)
        rows *= scales.reshape(-1, 1)  # ±f of the coordinate's row
        return signs
