"""Gradient codec interface and registry.

A *codec* turns a flat gradient vector into the two-part trimmable
encoding of Section 2/3: per-coordinate ``P``-bit **heads** (the
standalone compressed form that survives trimming) and ``Q``-bit
**tails** (the refinement that restores full precision), plus the
reliable :class:`~repro.core.metadata.GradientMetadata` side-channel.

Decoding takes a per-coordinate *trimmed mask* — which coordinates
arrived head-only — so the same codec serves both the fast array-level
simulation used for training experiments (exactly the paper's own
methodology) and real packet-level decode via the packetizer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Type

import numpy as np

from .metadata import GradientMetadata

__all__ = [
    "EncodedGradient",
    "GradientCodec",
    "register_codec",
    "codec_by_name",
    "codec_by_id",
    "available_codecs",
    "float32_sign_bits",
    "float32_rest_bits",
    "compose_float32",
    "nmse",
]


@dataclass
class EncodedGradient:
    """Output of :meth:`GradientCodec.encode`.

    Attributes:
        codec_id: registry id of the producing codec.
        head_bits: bits per coordinate in the head plane (``P``).
        tail_bits: bits per coordinate in the tail plane (``Q``).
        length: number of *encoded* coordinates (RHT codecs encode the
            padded rotated rows, so this can exceed the original length).
        heads: per-coordinate head codes, uint32, values < 2**head_bits.
        tails: per-coordinate tail codes, uint32, values < 2**tail_bits.
        metadata: the reliable side-channel (σ / L / row scales / seed).
        depth: bits per coordinate that arrived (0 = lost), for a code of
            more than two planes (:data:`~repro.packet.header.CODE_PLANES`)
            that the packetizer received; None where the ``trimmed`` and
            ``missing`` masks say it all.
    """

    codec_id: int
    head_bits: int
    tail_bits: int
    length: int
    heads: np.ndarray
    tails: np.ndarray
    metadata: GradientMetadata
    depth: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        for name in ("heads", "tails", "depth"):
            plane = getattr(self, name)
            if plane is not None and plane.shape != (self.length,):
                raise ValueError(f"{name} shape {plane.shape} != ({self.length},)")


class GradientCodec:
    """Base class for trimmable gradient codecs.

    Subclasses set ``name``, ``codec_id``, ``head_bits`` and ``tail_bits``
    and implement :meth:`encode` / :meth:`decode`.
    """

    name: str = "abstract"
    codec_id: int = 0
    head_bits: int = 1
    tail_bits: int = 31

    def encode(
        self, flat: np.ndarray, *, epoch: int = 0, message_id: int = 0
    ) -> EncodedGradient:
        """Encode a flat float vector into heads + tails + metadata."""
        raise NotImplementedError

    def decode(
        self,
        enc: EncodedGradient,
        trimmed: Optional[np.ndarray] = None,
        missing: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Decode; ``trimmed[i]`` marks coordinates received head-only.

        ``trimmed=None`` means nothing was trimmed.  ``missing[i]`` marks
        coordinates whose packet was dropped entirely — they decode to the
        zero-information estimate (0, applied *before* any inverse
        rotation).  Returns a float64 vector of the *original* length.
        """
        raise NotImplementedError

    # -- helpers shared by subclasses -------------------------------------

    @staticmethod
    def _check_finite(flat: np.ndarray) -> np.ndarray:
        """Reject NaN/inf inputs with a clear error.

        A non-finite gradient (diverged training, bad loss scaling) would
        otherwise poison σ / scales and decode into silent garbage.
        """
        flat = np.asarray(flat, dtype=np.float64).reshape(-1)
        if flat.size == 0:
            raise ValueError("cannot encode an empty gradient")
        if not np.isfinite(flat).all():
            bad = int((~np.isfinite(flat)).sum())
            raise ValueError(
                f"gradient contains {bad} non-finite values; refusing to encode"
            )
        return flat

    def _check_encoded(self, enc: EncodedGradient) -> None:
        if enc.codec_id != self.codec_id:
            raise ValueError(
                f"{self.name} codec cannot decode codec_id={enc.codec_id} "
                f"(expected {self.codec_id})"
            )

    @staticmethod
    def _trimmed_mask(enc: EncodedGradient, trimmed: Optional[np.ndarray]) -> np.ndarray:
        if trimmed is None:
            return np.zeros(enc.length, dtype=bool)
        trimmed = np.asarray(trimmed, dtype=bool).reshape(-1)
        if trimmed.shape != (enc.length,):
            raise ValueError(f"trimmed mask shape {trimmed.shape} != ({enc.length},)")
        return trimmed

    @staticmethod
    def _missing_mask(enc: EncodedGradient, missing: Optional[np.ndarray]) -> np.ndarray:
        if missing is None:
            return np.zeros(enc.length, dtype=bool)
        missing = np.asarray(missing, dtype=bool).reshape(-1)
        if missing.shape != (enc.length,):
            raise ValueError(f"missing mask shape {missing.shape} != ({enc.length},)")
        return missing

    def _select(
        self, enc: EncodedGradient, mask: np.ndarray, lost: np.ndarray, exact: np.ndarray
    ) -> np.ndarray:
        """Shared decode tail of the 1-bit-head codecs.

        ``exact`` (a fresh array, returned as is for a whole message) where
        the tail arrived, :meth:`_head_only` where ``mask`` says it was
        trimmed, 0 where ``lost``.  Each select runs only when its mask
        selects something: ``np.where`` is the one pass here numpy does not
        vectorize, and most messages arrive whole.
        """
        if mask.any():
            signs = enc.heads.astype(np.float64)
            signs *= 2.0
            signs -= 1.0
            exact = np.where(mask, self._head_only(enc, signs), exact)
        if lost.any():
            exact = np.where(lost, 0.0, exact)
        return exact

    def _head_only(self, enc: EncodedGradient, signs: np.ndarray) -> np.ndarray:
        """Estimate of every coordinate from its head alone.

        ``signs`` is the head plane as float64 ``±1``, a scratch array the
        codec may scale in place and return.
        """
        raise NotImplementedError


# -- registry ---------------------------------------------------------------

_BY_NAME: Dict[str, Callable[..., GradientCodec]] = {}
_BY_ID: Dict[int, Callable[..., GradientCodec]] = {}


def register_codec(cls: Type[GradientCodec]) -> Type[GradientCodec]:
    """Class decorator adding a codec to the by-name / by-id registry."""
    if cls.name in _BY_NAME:
        raise ValueError(f"codec name {cls.name!r} already registered")
    if cls.codec_id in _BY_ID:
        raise ValueError(f"codec id {cls.codec_id} already registered")
    _BY_NAME[cls.name] = cls
    _BY_ID[cls.codec_id] = cls
    return cls


def codec_by_name(name: str, **kwargs: Any) -> GradientCodec:
    """Instantiate a registered codec by name (e.g. ``"rht"``)."""
    if name not in _BY_NAME:
        raise KeyError(f"unknown codec {name!r}; available: {available_codecs()}")
    return _BY_NAME[name](**kwargs)


def codec_by_id(codec_id: int, **kwargs: Any) -> GradientCodec:
    """Instantiate a registered codec by wire id."""
    if codec_id not in _BY_ID:
        raise KeyError(f"unknown codec id {codec_id}")
    return _BY_ID[codec_id](**kwargs)


def available_codecs() -> list[str]:
    """Registered codec names."""
    return sorted(_BY_NAME)


# -- float32 bit surgery ------------------------------------------------------


def float32_sign_bits(values: np.ndarray) -> np.ndarray:
    """Sign bit of each float32 (1 = negative), as uint32.

    A float32 input is viewed, not converted: an encoder that needs sign
    and rest makes one ``astype(np.float32)`` image and passes it to both.
    """
    bits = np.asarray(values, dtype=np.float32).view(np.uint32)
    return bits >> np.uint32(31)


def float32_rest_bits(values: np.ndarray) -> np.ndarray:
    """Exponent + mantissa (low 31 bits) of each float32, as uint32."""
    bits = np.asarray(values, dtype=np.float32).view(np.uint32)
    return bits & np.uint32(0x7FFFFFFF)


def compose_float32(sign_bits: np.ndarray, rest_bits: np.ndarray) -> np.ndarray:
    """Rebuild float32 values from sign and exponent+mantissa bits.

    Only bit 0 of ``sign_bits`` and bits 0-30 of ``rest_bits`` are read
    (the shift and the mask drop the rest), so hostile wire values cannot
    leak into the other field.
    """
    sign = np.asarray(sign_bits, dtype=np.uint32) << np.uint32(31)
    rest = np.asarray(rest_bits, dtype=np.uint32) & np.uint32(0x7FFFFFFF)
    return (sign | rest).view(np.float32).astype(np.float64)


def nmse(original: np.ndarray, decoded: np.ndarray) -> float:
    """Normalized mean squared error ``‖x - x̂‖² / ‖x‖²``."""
    original = np.asarray(original, dtype=np.float64).reshape(-1)
    decoded = np.asarray(decoded, dtype=np.float64).reshape(-1)
    denom = float(np.dot(original, original))
    if denom <= 0.0:
        return float(np.dot(decoded, decoded))
    diff = original - decoded
    return float(np.dot(diff, diff) / denom)
