"""EDEN-style multi-bit trimmable codec (paper footnote 2 + Section 5.1).

DRIVE's 1-bit sign quantization was extended to any bit width by EDEN;
the paper's Section 5.1 asks for exactly such *versatile* encodings so a
switch can trim to different depths.  :class:`EdenCodec` generalizes
:class:`~repro.core.rht.RHTCodec` to ``P``-bit heads:

* rotate rows with the RHT (coordinates become ~N(0, σ_r²));
* head = the coordinate's cell in a **Lloyd–Max quantizer** for the
  standard normal with ``2^P`` levels (the MMSE scalar quantizer for the
  post-rotation distribution; exact tables for P ≤ 4, uniform beyond);
* tail = the residual against the head's reconstruction, uniformly
  quantized with the remaining ``32-P`` bits over
  ``±(sqrt(w) + max|c|)·σ_r`` for rows of width ``w`` and centroids
  ``c``.  ``σ_r²`` is the row's mean square, so no coordinate exceeds
  ``sqrt(w)·σ_r`` and no residual is ever clipped: an untrimmed packet
  decodes to a tail step of ``2(sqrt(w) + max|c|)·σ_r / (2^(32-P) - 1)``
  — about 2e-8·σ_r at P = 1 on 512-wide rows, 3e-6·σ_r at P = 8;
* per-row scale ``σ_r`` travels in the reliable metadata packet.

Because heads and tails live in separate packed planes, the existing
packetizer and ``Packet.trim()`` work unchanged for any ``P``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..transforms.prng import derive_seed
from .codec import EncodedGradient, GradientCodec, RowGroups, register_codec
from .metadata import GradientMetadata
from .rht import DEFAULT_ROW_SIZE

__all__ = ["EdenCodec", "lloyd_max_centroids"]

# Lloyd-Max quantizer centroids for the standard normal (positive half;
# negatives mirror).  Max (1960) / standard tables.
_LLOYD_MAX_POSITIVE = {
    1: np.array([0.7978845608]),
    2: np.array([0.4527800398, 1.5104176087]),
    3: np.array([0.2450708915, 0.7560052489, 1.3438932487, 2.1519457574]),
    4: np.array(
        [
            0.1284368706, 0.3880762953, 0.6568083710, 0.9423403306,
            1.2562311512, 1.6180718635, 2.0690116706, 2.7326340780,
        ]
    ),
}


def lloyd_max_centroids(bits: int) -> np.ndarray:
    """All ``2**bits`` centroids, ascending, for a standard normal.

    Exact Lloyd-Max tables for ``bits <= 4``; mid-rise uniform centroids
    over ``[-4, 4]`` beyond (the extra levels make uniform near-optimal).
    """
    if not 1 <= bits <= 8:
        raise ValueError(f"bits must be in [1, 8], got {bits}")
    if bits in _LLOYD_MAX_POSITIVE:
        positive = _LLOYD_MAX_POSITIVE[bits]
        return np.concatenate([-positive[::-1], positive])
    levels = 1 << bits
    step = 8.0 / levels
    return -4.0 + step / 2 + step * np.arange(levels)


def _residual_range(centroids: np.ndarray, width: int) -> float:
    """Tail span in units of the row's ``σ_r``: a bound on every residual.

    ``|x| <= sqrt(width)·σ_r`` for every coordinate of a row whose mean
    square is ``σ_r²``, and the head's reconstruction is at most
    ``max|c|·σ_r`` away from zero.
    """
    return float(np.sqrt(width) + np.abs(centroids).max())


@register_codec
class EdenCodec(GradientCodec):
    """RHT rotation + P-bit Lloyd-Max heads + residual tails."""

    name = "eden"
    codec_id = 6

    def __init__(
        self,
        root_seed: int = 0,
        head_bits: int = 4,
        row_size: int = DEFAULT_ROW_SIZE,
    ) -> None:
        if not 1 <= head_bits <= 8:
            raise ValueError(f"head_bits must be in [1, 8], got {head_bits}")
        self.root_seed = root_seed
        self.head_bits = head_bits
        self.tail_bits = 32 - head_bits
        self.row_size = row_size
        self._centroids = lloyd_max_centroids(head_bits)
        # Cell boundaries: midpoints between adjacent centroids.
        self._boundaries = (self._centroids[1:] + self._centroids[:-1]) / 2.0

    # -- encode --------------------------------------------------------------

    def encode(
        self, flat: np.ndarray, *, epoch: int = 0, message_id: int = 0
    ) -> EncodedGradient:
        flat = self._check_finite(flat)
        sigma = float(np.std(flat))
        seed = derive_seed(self.root_seed, epoch, message_id, purpose="rotation")
        groups = RowGroups.rotating(flat.size, self.row_size, seed)
        width = groups.width
        all_sigmas = np.empty(groups.length // width)
        max_tail = (1 << self.tail_bits) - 1

        def group(part: slice, rows: np.ndarray, heads: np.ndarray, tails: np.ndarray) -> None:
            sigmas = np.sqrt(np.mean(rows * rows, axis=1))
            sigmas = np.where(sigmas > 0, sigmas, 1.0)
            all_sigmas[groups.rows(part)] = sigmas
            heads[...] = np.searchsorted(self._boundaries, rows / sigmas[:, None])
            # The residual against the head's reconstruction, normalized to
            # its span and rounded to the tail code, in one array.
            residual = self._centroids[heads]
            residual *= sigmas[:, None]
            np.subtract(rows, residual, out=residual)
            residual /= _residual_range(self._centroids, width) * sigmas[:, None]
            residual += 1.0
            residual /= 2.0
            np.clip(residual, 0.0, 1.0, out=residual)
            residual *= max_tail
            np.copyto(tails, np.rint(residual, out=residual), casting="unsafe")

        planes = groups.encode(flat, group)
        metadata = GradientMetadata(
            message_id=message_id,
            epoch=epoch,
            original_length=flat.size,
            row_size=width,
            seed=seed,
            sigma=sigma,
            row_scales=all_sigmas,
        )
        return self._encoded(planes, metadata)

    # -- decode ---------------------------------------------------------------

    def decode(
        self,
        enc: EncodedGradient,
        trimmed: Optional[np.ndarray] = None,
        missing: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        self._check_encoded(enc)
        # Decode is self-describing: the head width travels in the
        # encoding, so one EdenCodec instance can decode messages encoded
        # at any P (needed when the receiver reconstructs the codec from
        # the wire codec id alone).
        centroids = (
            self._centroids
            if enc.head_bits == self.head_bits
            else lloyd_max_centroids(enc.head_bits)
        )
        mask = self._mask(enc, trimmed, "trimmed")
        lost = self._mask(enc, missing, "missing")
        all_sigmas = np.asarray(enc.metadata.row_scales, dtype=np.float64)
        groups = RowGroups.received(enc, all_sigmas)
        max_tail = (1 << enc.tail_bits) - 1
        residual_range = _residual_range(centroids, groups.width)

        def group(part: slice, values: np.ndarray) -> None:
            sigmas = all_sigmas[groups.rows(part), None]
            r_hat = values.reshape(-1, groups.width)
            np.multiply(centroids[enc.heads[part].reshape(r_hat.shape)], sigmas, out=r_hat)
            residual = enc.tails[part].reshape(r_hat.shape).astype(np.float64)
            residual /= max_tail
            residual *= 2.0
            residual -= 1.0
            residual *= residual_range * sigmas
            # The head's reconstruction where the tail was trimmed.
            kept = True if mask is None else ~mask[part].reshape(r_hat.shape)
            np.add(r_hat, residual, out=r_hat, where=kept)
            if lost is not None:
                np.copyto(values, 0.0, where=lost[part])

        return groups.decode(group)
