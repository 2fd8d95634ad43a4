"""Multi-level trimmable encoding (paper Section 5.1, future work).

The paper's two-tier code supports exactly one trim depth (keep ``P`` of
``P+Q`` bits).  Section 5.1 asks for *versatile* encodings where a switch
can choose among several trim depths according to congestion — e.g. trim
a packet to ~25 % size (8 bits/coordinate) under mild congestion or ~3 %
(1 bit) under heavy congestion.

This module implements a three-plane tiered code over RHT-rotated rows,
with the plane widths :data:`~repro.packet.header.CODE_PLANES` gives
codec 5:

* **plane 0 — 1 bit**: ``sign(r)``; decodes as ``f·sign(r)`` with the
  DRIVE scale ``f`` (identical to :class:`~repro.core.rht.RHTCodec`).
* **plane 1 — 7 bits**: magnitude ``m = ⌊|r|/A·128⌋`` against the per-row
  range ``A = max|r|``; together with the sign it decodes as the midpoint
  ``±(m+½)·A/128`` — an 8-bit uniform quantizer.
* **plane 2 — 24 bits**: the residual ``r - r̂₈`` uniformly quantized over
  ``±A/128``, restoring near-full precision (error ≤ A·2⁻³², below fp32
  resolution for these rows).

The heads of the :class:`~repro.core.codec.EncodedGradient` are the
signs; its tails are ``magnitude << 24 | residual``.  The shared
packetizer lays the planes out contiguously (all signs, then all
magnitudes, then all residuals), so :meth:`repro.packet.Packet.cut` can
cut at the 1-bit or 8-bit plane boundary — no arithmetic needed, just a
shorter keep-length, exactly the paper's "trim to 25 % or 3 %" — and
``depacketize`` hands the depth that arrived per coordinate to
:meth:`MultiLevelCodec.decode`.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Optional

import numpy as np

from ..packet.header import CODE_PLANES
from ..transforms.prng import derive_seed
from ..transforms.rotation import RotatedRows, rotate_rows, unrotate_rows
from .codec import EncodedGradient, GradientCodec, register_codec
from .metadata import GradientMetadata
from .rht import DEFAULT_ROW_SIZE, unbiased_row_scales

__all__ = ["LEVEL_BITS", "MultiLevelCodec"]

_PLANES = CODE_PLANES[5]  # MultiLevelCodec.codec_id
#: Decodable prefix depths: sign-only, sign+magnitude, full.
LEVEL_BITS = tuple(accumulate(_PLANES))

_MAG_STEPS = 1 << _PLANES[1]  # magnitude plane resolution
_RES_BITS = _PLANES[2]
_RES_LEVELS = (1 << _RES_BITS) - 1  # residual plane resolution


@register_codec
class MultiLevelCodec(GradientCodec):
    """Tiered 1/8/32-bit trimmable codec (Section 5.1)."""

    name = "multilevel"
    codec_id = 5
    head_bits = _PLANES[0]
    tail_bits = LEVEL_BITS[-1] - _PLANES[0]

    def __init__(self, root_seed: int = 0, row_size: int = DEFAULT_ROW_SIZE) -> None:
        self.root_seed = root_seed
        self.row_size = row_size

    def encode(
        self, flat: np.ndarray, *, epoch: int = 0, message_id: int = 0
    ) -> EncodedGradient:
        """Rotate, then split every coordinate into the three planes."""
        flat = self._check_finite(flat)
        seed = derive_seed(self.root_seed, epoch, message_id, purpose="rotation")
        rotated = rotate_rows(flat, self.row_size, seed)
        rows = rotated.rows
        f_scales = unbiased_row_scales(rows)
        ranges = np.abs(rows).max(axis=1)
        ranges = np.where(ranges > 0, ranges, 1.0)

        signs = (rows >= 0).astype(np.uint32)
        step = ranges[:, None] / _MAG_STEPS
        mags = np.minimum(
            (np.abs(rows) / step).astype(np.int64), _MAG_STEPS - 1
        ).astype(np.uint32)
        mid = (mags.astype(np.float64) + 0.5) * step
        r8 = np.where(signs == 1, mid, -mid)
        residual = rows - r8
        # Residual lies in ±step/2 by construction; quantize over ±step to
        # keep headroom for float rounding at the clamp boundary.
        res_norm = np.clip((residual / step + 1.0) / 2.0, 0.0, 1.0)
        res_codes = np.rint(res_norm * _RES_LEVELS).astype(np.uint32)

        metadata = GradientMetadata(
            message_id=message_id,
            epoch=epoch,
            original_length=flat.size,
            row_size=rotated.row_size,
            seed=seed,
            sigma=float(np.std(flat)),
            row_scales=f_scales,
            aux_scales=ranges,
        )
        return EncodedGradient(
            codec_id=self.codec_id,
            head_bits=self.head_bits,
            tail_bits=self.tail_bits,
            length=rows.size,
            heads=signs.reshape(-1),
            tails=(mags << np.uint32(_RES_BITS) | res_codes).reshape(-1),
            metadata=metadata,
        )

    def decode(
        self,
        enc: EncodedGradient,
        trimmed: Optional[np.ndarray] = None,
        missing: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Decode each coordinate at the depth that arrived.

        That depth is ``enc.depth`` (32, 8, 1, or 0 for a lost packet)
        when the packetizer received the message; otherwise a ``trimmed``
        coordinate has its sign (1 bit), a ``missing`` one nothing, and
        every other one all 32 bits.
        """
        self._check_encoded(enc)
        levels = enc.depth
        if levels is None:
            levels = np.full(enc.length, LEVEL_BITS[-1], dtype=np.uint8)
            levels[self._trimmed_mask(enc, trimmed)] = LEVEL_BITS[0]
            levels[self._missing_mask(enc, missing)] = 0
        bad = ~np.isin(levels, (0,) + LEVEL_BITS)
        if bad.any():
            raise ValueError(f"invalid depth values: {np.unique(levels[bad])}")
        meta = enc.metadata
        width = meta.row_size
        num_rows = enc.length // width

        sign_values = enc.heads.astype(np.float64) * 2.0 - 1.0
        f_scales = np.repeat(np.asarray(meta.row_scales, dtype=np.float64), width)
        ranges = np.repeat(np.asarray(meta.aux_scales, dtype=np.float64), width)
        step = ranges / _MAG_STEPS

        mags = enc.tails >> np.uint32(_RES_BITS)
        residuals = enc.tails & np.uint32(_RES_LEVELS)
        mid = (mags.astype(np.float64) + 0.5) * step
        r8 = sign_values * mid
        residual = (residuals.astype(np.float64) / _RES_LEVELS * 2.0 - 1.0) * step
        r_full = r8 + residual
        r1 = sign_values * f_scales

        r_hat = np.zeros(enc.length, dtype=np.float64)
        r_hat = np.where(levels == LEVEL_BITS[0], r1, r_hat)
        r_hat = np.where(levels == LEVEL_BITS[1], r8, r_hat)
        r_hat = np.where(levels == LEVEL_BITS[2], r_full, r_hat)

        rotated = RotatedRows(
            rows=r_hat.reshape(num_rows, width),
            original_length=meta.original_length,
            row_size=width,
            seed=meta.seed,
        )
        return unrotate_rows(rotated)
