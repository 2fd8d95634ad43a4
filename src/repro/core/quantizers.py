"""Scalar 1-bit trimmable codecs (paper Section 3.1).

Three per-coordinate head encodings, each with ``P = 1`` head bit and
``Q = 31`` tail bits:

* :class:`SignMagnitudeCodec` — head is the sign bit, tail is the float's
  exponent+mantissa; trimmed coordinates decode to ``±σ``.
* :class:`StochasticQuantizationCodec` (SQ) — TernGrad-style unbiased
  1-bit code over the clipped range ``[-L, L]``, ``L = 2.5σ``.
* :class:`SubtractiveDitheringCodec` (SD) — shared-randomness dither
  ``ε ~ U(-L/2, L/2)``; ``Q(x) = L·sign(x+ε)``, decode ``x̃ = Q(x) - ε``.

Tail construction.  Sign-magnitude's head *is* the true sign, so head +
31 remaining float bits reconstruct the value exactly.  SQ and SD heads
are randomized and may disagree with the true sign, so their 31-bit tail
spends one bit on a *sign correction* (``head XOR true-sign``) and keeps
the top 30 of the 31 exponent+mantissa bits — untrimmed decode is then
exact up to one dropped mantissa ULP, matching the paper's note that a
reduced tail loses original precision (footnote 1).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

import numpy as np

from ..transforms.prng import shared_generator
from .codec import (
    EncodedGradient,
    GradientCodec,
    compose_float32,
    float32_rest_bits,
    float32_sign_bits,
    register_codec,
)
from .metadata import GradientMetadata

__all__ = [
    "ScalarCodec",
    "SignMagnitudeCodec",
    "StochasticQuantizationCodec",
    "SubtractiveDitheringCodec",
]

#: TernGrad-style clipping multiplier: L = 2.5 sigma.
CLIP_SIGMA_MULTIPLIER = 2.5


@lru_cache(maxsize=8)
def _cached_dither(
    root_seed: int, epoch: int, message_id: int, scale: float, n: int
) -> np.ndarray:
    """Frozen dither stream for one ``(seed, message)`` key.

    The SD codec regenerates the identical ``U(-L, L)`` stream on encode
    and again on decode of the same message; caching the (read-only)
    array means each stream is drawn once per round trip.  The cache is
    deliberately tiny — streams are gradient-sized, and only the few
    in-flight messages of the current step can hit.
    """
    gen = shared_generator(root_seed, epoch, message_id, purpose="dither")
    dither = gen.uniform(-scale, scale, size=n)
    dither.setflags(write=False)
    return dither


class ScalarCodec(GradientCodec):
    """Shared machinery for the per-coordinate (non-rotating) codecs."""

    head_bits = 1
    tail_bits = 31

    def __init__(self, root_seed: int = 0) -> None:
        self.root_seed = root_seed

    def _metadata(
        self, flat: np.ndarray, epoch: int, message_id: int, scale: float, sigma: float
    ) -> GradientMetadata:
        """Side-channel record; ``sigma`` is the caller's one ``float(np.std(flat))``."""
        return GradientMetadata(
            message_id=message_id,
            epoch=epoch,
            original_length=flat.size,
            row_size=0,
            seed=self.root_seed,
            sigma=sigma,
            scale=scale,
        )

    @staticmethod
    def _plus_head(values: np.ndarray) -> np.ndarray:
        """Head bit 1 for non-negative values (matches pack_signs)."""
        return (1 - float32_sign_bits(values)).astype(np.uint32)

    @staticmethod
    def _exact_tail(head: np.ndarray, values: np.ndarray) -> np.ndarray:
        """31-bit tail = exponent+mantissa; exact with a true-sign head."""
        del head  # the sign head needs no correction bit
        return float32_rest_bits(values)

    @staticmethod
    def _corrected_tail(head: np.ndarray, values: np.ndarray) -> np.ndarray:
        """31-bit tail = correction bit + top-30 exponent/mantissa bits."""
        s_plus = (1 - float32_sign_bits(values)).astype(np.uint32)
        correction = (head ^ s_plus) & np.uint32(1)
        rest30 = float32_rest_bits(values) >> np.uint32(1)
        return (correction << np.uint32(30)) | rest30

    @staticmethod
    def _decode_corrected(head: np.ndarray, tails: np.ndarray) -> np.ndarray:
        """Invert :meth:`_corrected_tail` (lowest mantissa bit lost)."""
        correction = (tails >> np.uint32(30)) & np.uint32(1)
        rest31 = (tails & np.uint32(0x3FFFFFFF)) << np.uint32(1)
        s_plus = (head ^ correction) & np.uint32(1)
        return compose_float32(1 - s_plus, rest31)


@register_codec
class SignMagnitudeCodec(ScalarCodec):
    """Head = sign bit; trimmed coordinates decode to ``±σ``.

    The paper's simplest scheme — and the one whose training diverges once
    2 % or more of the packets are trimmed, because replacing a tiny
    coordinate by ``±σ`` is a large, *biased* error.
    """

    name = "sign"
    codec_id = 1

    def encode(
        self, flat: np.ndarray, *, epoch: int = 0, message_id: int = 0
    ) -> EncodedGradient:
        flat = self._check_finite(flat)
        heads = self._plus_head(flat)
        tails = self._exact_tail(heads, flat)
        return EncodedGradient(
            codec_id=self.codec_id,
            head_bits=self.head_bits,
            tail_bits=self.tail_bits,
            length=flat.size,
            heads=heads,
            tails=tails,
            metadata=self._metadata(
                flat, epoch, message_id, scale=0.0, sigma=float(np.std(flat))
            ),
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
        exact = compose_float32(1 - enc.heads, enc.tails)
        sigma = enc.metadata.sigma
        signs = enc.heads.astype(np.float64) * 2.0 - 1.0
        decoded = np.where(mask, signs * sigma, exact)
        return np.where(lost, 0.0, decoded)


@register_codec
class StochasticQuantizationCodec(ScalarCodec):
    """TernGrad-style unbiased stochastic 1-bit quantization.

    After clipping ``v`` to ``[-L, L]`` with ``L = 2.5σ``, encode ``+1``
    with probability ``(L+v)/2L`` — the decoded ``±L`` value is then an
    unbiased estimate of the (clipped) coordinate.
    """

    name = "sq"
    codec_id = 2

    def __init__(self, root_seed: int = 0, clip_multiplier: float = CLIP_SIGMA_MULTIPLIER) -> None:
        super().__init__(root_seed)
        self.clip_multiplier = clip_multiplier

    def encode(
        self, flat: np.ndarray, *, epoch: int = 0, message_id: int = 0
    ) -> EncodedGradient:
        flat = self._check_finite(flat)
        sigma = float(np.std(flat))
        scale = self.clip_multiplier * sigma
        if scale > 0:
            clipped = np.clip(flat, -scale, scale)
            p_plus = (scale + clipped) / (2.0 * scale)
        else:
            p_plus = np.full(flat.size, 0.5)
        gen = shared_generator(self.root_seed, epoch, message_id, purpose="quantize")
        heads = (gen.random(flat.size) < p_plus).astype(np.uint32)
        tails = self._corrected_tail(heads, flat)
        enc = EncodedGradient(
            codec_id=self.codec_id,
            head_bits=self.head_bits,
            tail_bits=self.tail_bits,
            length=flat.size,
            heads=heads,
            tails=tails,
            metadata=self._metadata(flat, epoch, message_id, scale=scale, sigma=sigma),
        )
        return enc

    def decode(
        self,
        enc: EncodedGradient,
        trimmed: Optional[np.ndarray] = None,
        missing: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        self._check_encoded(enc)
        mask = self._trimmed_mask(enc, trimmed)
        lost = self._missing_mask(enc, missing)
        exact = self._decode_corrected(enc.heads, enc.tails)
        signs = enc.heads.astype(np.float64) * 2.0 - 1.0
        decoded = np.where(mask, signs * enc.metadata.scale, exact)
        return np.where(lost, 0.0, decoded)


@register_codec
class SubtractiveDitheringCodec(ScalarCodec):
    """Subtractive dithering with shared randomness.

    Sender and receiver regenerate the same dither ``ε ~ U(-L, L)``
    from the (epoch, message id)-derived stream, so only the 1-bit code
    crosses the network.  With decode levels ``±L`` this dither width
    makes the trimmed estimate ``L·sign(v+ε) − ε`` exactly unbiased for
    every ``v`` in the clip range (``E = v``) with worst-case error
    ``L`` — smaller than SQ's and independent of the input.
    """

    name = "sd"
    codec_id = 3

    def __init__(self, root_seed: int = 0, clip_multiplier: float = CLIP_SIGMA_MULTIPLIER) -> None:
        super().__init__(root_seed)
        self.clip_multiplier = clip_multiplier

    def _dither(self, n: int, scale: float, epoch: int, message_id: int) -> np.ndarray:
        # Full-width dither: levels are ±scale, so U(-scale, scale) is
        # the unique width making E[scale·sign(v+ε) − ε] = v on the
        # whole clip range (a half-width dither doubles small values).
        # Cached read-only per (seed, message): decode reuses encode's draw.
        return _cached_dither(self.root_seed, epoch, message_id, scale, n)

    def encode(
        self, flat: np.ndarray, *, epoch: int = 0, message_id: int = 0
    ) -> EncodedGradient:
        flat = self._check_finite(flat)
        sigma = float(np.std(flat))
        scale = self.clip_multiplier * sigma
        dither = self._dither(flat.size, scale, epoch, message_id)
        clipped = np.clip(flat, -scale, scale) if scale > 0 else flat
        heads = (clipped + dither >= 0).astype(np.uint32)
        tails = self._corrected_tail(heads, flat)
        return EncodedGradient(
            codec_id=self.codec_id,
            head_bits=self.head_bits,
            tail_bits=self.tail_bits,
            length=flat.size,
            heads=heads,
            tails=tails,
            metadata=self._metadata(flat, epoch, message_id, scale=scale, sigma=sigma),
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
        exact = self._decode_corrected(enc.heads, enc.tails)
        meta = enc.metadata
        dither = self._dither(enc.length, meta.scale, meta.epoch, meta.message_id)
        signs = enc.heads.astype(np.float64) * 2.0 - 1.0
        decoded = np.where(mask, signs * meta.scale - dither, exact)
        return np.where(lost, 0.0, decoded)
