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
    def _corrected_tail(head: np.ndarray, values: np.ndarray) -> np.ndarray:
        """31-bit tail = correction bit + top-30 exponent/mantissa bits.

        ``(head ^ 1) << 31`` XOR the float32 word leaves ``head XOR
        true-sign`` (head bit 1 = non-negative) in bit 31 above the 31
        exponent+mantissa bits; one shift then drops the lowest mantissa
        bit and puts the correction at bit 30.
        """
        tails = head ^ np.uint32(1)
        tails <<= np.uint32(31)
        tails ^= values.astype(np.float32).view(np.uint32)
        tails >>= np.uint32(1)
        return tails

    @staticmethod
    def _decode_corrected(head: np.ndarray, tails: np.ndarray) -> np.ndarray:
        """Invert :meth:`_corrected_tail` (lowest mantissa bit lost).

        ``tails << 1`` has the correction in bit 31 and shifts a hostile
        bit 31 out; XOR ``(head ^ 1) << 31`` turns it back into the sign.
        """
        word = np.asarray(head, dtype=np.uint32) ^ np.uint32(1)
        word <<= np.uint32(31)
        word ^= np.asarray(tails, dtype=np.uint32) << np.uint32(1)
        return word.view(np.float32).astype(np.float64)


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
        image = flat.astype(np.float32)
        heads = float32_sign_bits(image)
        heads ^= np.uint32(1)  # head bit 1 for non-negative values (unpack_signs reads 1 as +1)
        tails = float32_rest_bits(image)  # exact: a true-sign head needs no correction bit
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
        return self._select(enc, mask, lost, exact)

    def _head_only(self, enc: EncodedGradient, signs: np.ndarray) -> np.ndarray:
        signs *= enc.metadata.sigma  # ±σ
        return signs


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
            p_plus = np.clip(flat, -scale, scale)
            p_plus += scale
            p_plus /= 2.0 * scale
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
        return self._select(enc, mask, lost, exact)

    def _head_only(self, enc: EncodedGradient, signs: np.ndarray) -> np.ndarray:
        signs *= enc.metadata.scale  # ±L
        return signs


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
        # Not memoized: the stream is gradient-sized, and redrawing it for a
        # decode with trimmed coordinates costs no resolvable ``unit_s``
        # (docs/performance.md, "Trial record: shared-randomness caches").
        gen = shared_generator(self.root_seed, epoch, message_id, purpose="dither")
        return gen.uniform(-scale, scale, size=n)

    def encode(
        self, flat: np.ndarray, *, epoch: int = 0, message_id: int = 0
    ) -> EncodedGradient:
        flat = self._check_finite(flat)
        sigma = float(np.std(flat))
        scale = self.clip_multiplier * sigma
        dither = self._dither(flat.size, scale, epoch, message_id)
        if scale > 0:
            shifted = np.clip(flat, -scale, scale)
            shifted += dither
        else:
            shifted = flat + dither
        heads = (shifted >= 0).astype(np.uint32)
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
        return self._select(enc, mask, lost, exact)

    def _head_only(self, enc: EncodedGradient, signs: np.ndarray) -> np.ndarray:
        meta = enc.metadata
        signs *= meta.scale
        signs -= self._dither(enc.length, meta.scale, meta.epoch, meta.message_id)  # ±L − ε
        return signs
