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
from .codec import EncodedGradient, GradientCodec, RowGroups, register_codec
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
        sigma = float(np.std(flat))
        seed = derive_seed(self.root_seed, epoch, message_id, purpose="rotation")
        groups = RowGroups.rotating(flat.size, self.row_size, seed)
        f_scales = np.empty(groups.length // groups.width)
        all_ranges = np.empty_like(f_scales)

        def group(part: slice, rows: np.ndarray, signs: np.ndarray, tails: np.ndarray) -> None:
            f_scales[groups.rows(part)] = unbiased_row_scales(rows)
            ranges = np.abs(rows).max(axis=1)
            ranges = np.where(ranges > 0, ranges, 1.0)
            all_ranges[groups.rows(part)] = ranges

            signs[...] = rows >= 0
            step = ranges[:, None] / _MAG_STEPS
            # One scratch array walks the chain in place: |r|/step, the
            # magnitude m = min(trunc, 127) (kept in the tail plane), the
            # midpoint ±(m + ½)·step, the residual r - r̂₈ and its code.
            work = np.abs(rows)
            work /= step
            np.minimum(work, _MAG_STEPS - 1, out=work)
            np.trunc(work, out=work)
            np.copyto(tails, work, casting="unsafe")
            tails <<= np.uint32(_RES_BITS)
            work += 0.5
            work *= step
            np.negative(work, out=work, where=signs == 0)
            np.subtract(rows, work, out=work)
            # Residual lies in ±step/2 by construction; quantize over ±step to
            # keep headroom for float rounding at the clamp boundary.
            work /= step
            work += 1.0
            work /= 2.0
            np.clip(work, 0.0, 1.0, out=work)
            work *= _RES_LEVELS
            np.rint(work, out=work)
            work += tails  # m << 24 | code, exact in float64 below 2^53
            np.copyto(tails, work, casting="unsafe")

        planes = groups.encode(flat, group)
        metadata = GradientMetadata(
            message_id=message_id,
            epoch=epoch,
            original_length=flat.size,
            row_size=groups.width,
            seed=seed,
            sigma=sigma,
            row_scales=f_scales,
            aux_scales=all_ranges,
        )
        return self._encoded(planes, metadata)

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
        mask = self._mask(enc, trimmed, "trimmed")
        lost = self._mask(enc, missing, "missing")
        meta = enc.metadata
        f_scales = np.asarray(meta.row_scales, dtype=np.float64)
        all_ranges = np.asarray(meta.aux_scales, dtype=np.float64)
        groups = RowGroups.received(enc, f_scales, all_ranges)

        def group(part: slice, values: np.ndarray) -> None:
            if enc.depth is not None:
                levels = enc.depth[part]
            else:
                levels = np.full(values.size, LEVEL_BITS[-1], dtype=np.uint8)
                if mask is not None:
                    levels[mask[part]] = LEVEL_BITS[0]
                if lost is not None:
                    levels[lost[part]] = 0
            bad = ~np.isin(levels, (0,) + LEVEL_BITS)
            if bad.any():
                raise ValueError(f"invalid depth values: {np.unique(levels[bad])}")
            r_hat = values.reshape(-1, groups.width)
            levels = levels.reshape(r_hat.shape)
            rows = groups.rows(part)
            step = all_ranges[rows, None] / _MAG_STEPS
            tails = enc.tails[part].reshape(r_hat.shape)
            signs = enc.heads[part].reshape(r_hat.shape).astype(np.float64)
            signs *= 2.0
            signs -= 1.0

            # r̂: the 8-bit midpoint ±(m + ½)·step, then ±f where 1 bit
            # arrived, + the residual where all 32 did, 0 where none did.
            np.copyto(r_hat, tails >> np.uint32(_RES_BITS))
            r_hat += 0.5
            r_hat *= step
            r_hat *= signs
            signs *= f_scales[rows, None]
            np.copyto(r_hat, signs, where=levels == LEVEL_BITS[0])
            del signs
            residual = (tails & np.uint32(_RES_LEVELS)).astype(np.float64)
            residual /= _RES_LEVELS
            residual *= 2.0
            residual -= 1.0
            residual *= step
            np.add(r_hat, residual, out=r_hat, where=levels == LEVEL_BITS[2])
            np.copyto(r_hat, 0.0, where=levels == 0)

        return groups.decode(group)
