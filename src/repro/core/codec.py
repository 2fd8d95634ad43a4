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
from typing import Any, Callable, Dict, Iterator, Optional, Tuple, Type

import numpy as np

from ..transforms.hadamard import _TILE, fwht_inplace, is_power_of_two, next_power_of_two
from ..transforms.rotation import random_signs
from .metadata import GradientMetadata

__all__ = [
    "EncodedGradient",
    "GradientCodec",
    "RowGroups",
    "register_codec",
    "codec_by_name",
    "codec_by_id",
    "available_codecs",
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


#: A group's chain: ``(part, values, heads, tails)`` writes the group's codes.
EncodeGroup = Callable[[slice, np.ndarray, np.ndarray, np.ndarray], None]


@dataclass(eq=False)
class RowGroups:
    """A message's coordinates in rows, the rows in groups: the one pass of
    every codec's ``encode`` and ``decode``.

    A group is as many whole rows as fit in ``hadamard._TILE`` coordinates
    (one row where a row is wider).  The planes or the decoded vector are
    allocated once; each group then goes through the codec's whole chain
    and is written into them, so a round trip holds one group of
    temporaries beside them, not a message of them — §3.2 cuts the
    rotation into rows that stay in fast memory for the same reason.  With
    ``signs`` (a rotating code's ±1 diagonal) a group's values are the RHT
    of its rows.

    Attributes:
        length: coordinates in the planes (whole rows).
        n: coordinates of the gradient (``length`` less the last row's padding).
        width: coordinates in a row (1 for a code that does not rotate).
        signs: the rotation's ±1 diagonal; None for a scalar code.
    """

    length: int
    n: int
    width: int = 1
    signs: Optional[np.ndarray] = None

    @classmethod
    def rotating(cls, n: int, row_size: int, seed: int) -> "RowGroups":
        """Rows of ``row_size`` for an ``n``-coordinate blob, the last one
        zero-padded; a blob shorter than a row is one row padded to the next
        power of two, so a tiny layer does not pay for a full row."""
        if not is_power_of_two(row_size):
            raise ValueError(f"row_size must be a power of two, got {row_size}")
        width = next_power_of_two(n) if n < row_size else row_size
        return cls(-(-n // width) * width, n, width, random_signs(width, seed))

    @classmethod
    def received(cls, enc: "EncodedGradient", *scales: np.ndarray) -> "RowGroups":
        """The rows of a rotated message, checked against its per-row ``scales``."""
        meta = enc.metadata
        width = meta.row_size
        if width <= 0 or enc.length % width != 0:
            raise ValueError(f"encoded length {enc.length} not a multiple of row {width}")
        for row_scales in scales:
            if row_scales.size != enc.length // width:
                rows = f"{enc.length // width} rows of {width}"
                raise ValueError(f"{row_scales.size} row scales cannot cover {rows}")
        return cls(enc.length, meta.original_length, width, random_signs(width, meta.seed))

    def __iter__(self) -> Iterator[slice]:
        step = max(1, _TILE // self.width) * self.width
        for start in range(0, self.length, step):
            yield slice(start, min(start + step, self.length))

    def rows(self, part: slice) -> slice:
        """The rows group ``part`` holds: where its per-row scales go."""
        return slice(part.start // self.width, part.stop // self.width)

    def encode(self, flat: np.ndarray, group: EncodeGroup) -> Tuple[np.ndarray, np.ndarray]:
        """Head and tail planes, ``group(part, values, heads, tails)`` writing
        each group's codes into the planes' slices.

        ``values`` is a view of ``flat`` (read it only) for a scalar code,
        and the group's rotated rows, a fresh ``(rows, width)`` array, for a
        rotating one; ``heads`` and ``tails`` have its shape.
        """
        heads = np.empty(self.length, dtype=np.uint32)
        tails = np.empty(self.length, dtype=np.uint32)
        for part in self:
            values = flat[part]
            if self.signs is not None:
                rows = np.zeros(((part.stop - part.start) // self.width, self.width))
                rows.reshape(-1)[: values.size] = values
                rows *= self.signs
                values = fwht_inplace(rows)
            shape = values.shape
            group(part, values, heads[part].reshape(shape), tails[part].reshape(shape))
        return heads, tails

    def decode(self, group: Callable[[slice, np.ndarray], None]) -> np.ndarray:
        """The decoded vector, ``group(part, values)`` writing each group's
        estimate into its slice (1-D), inverse-rotated here in place for a
        rotating code; a rotated message's padding is cut off by a view."""
        out = np.empty(self.length)
        for part in self:
            values = out[part]
            group(part, values)
            if self.signs is not None:
                rows = values.reshape(-1, self.width)
                fwht_inplace(rows)
                rows *= self.signs
        return out[: self.n]


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

    def _encoded(
        self, planes: Tuple[np.ndarray, np.ndarray], metadata: GradientMetadata
    ) -> EncodedGradient:
        heads, tails = planes
        return EncodedGradient(
            codec_id=self.codec_id,
            head_bits=self.head_bits,
            tail_bits=self.tail_bits,
            length=heads.size,
            heads=heads,
            tails=tails,
            metadata=metadata,
        )

    def _check_encoded(self, enc: EncodedGradient) -> None:
        if enc.codec_id != self.codec_id:
            raise ValueError(
                f"{self.name} codec cannot decode codec_id={enc.codec_id} "
                f"(expected {self.codec_id})"
            )

    @staticmethod
    def _mask(enc: EncodedGradient, mask: Optional[np.ndarray], name: str) -> Optional[np.ndarray]:
        if mask is None:
            return None
        mask = np.asarray(mask, dtype=bool).reshape(-1)
        if mask.shape != (enc.length,):
            raise ValueError(f"{name} mask shape {mask.shape} != ({enc.length},)")
        return mask

    def _decode_groups(
        self,
        enc: EncodedGradient,
        trimmed: Optional[np.ndarray],
        missing: Optional[np.ndarray],
        exact: Callable[[np.ndarray, np.ndarray], np.ndarray],
        groups: Optional[RowGroups] = None,
    ) -> np.ndarray:
        """Shared decode of the 1-bit-head codecs, a row group at a time.

        ``exact(heads, tails)`` of the group's codes (float32 values,
        widened into the output) where the tail arrived, the
        :meth:`_head_only` estimate where ``trimmed`` says it was cut, 0
        where ``missing`` says the packet was lost.  The estimate is made
        only for a message with a trimmed coordinate, but then for every
        group in order: its shared randomness is one stream.  ``groups``
        defaults to a scalar code's plan.
        """
        groups = RowGroups(enc.length, enc.length) if groups is None else groups
        trimmed = self._mask(enc, trimmed, "trimmed")
        missing = self._mask(enc, missing, "missing")
        estimate = self._head_only(enc) if trimmed is not None and trimmed.any() else None
        lost = missing if missing is not None and missing.any() else None

        def group(part: slice, values: np.ndarray) -> None:
            np.copyto(values, exact(enc.heads[part], enc.tails[part]))
            if estimate is not None and trimmed is not None:
                signs = enc.heads[part].astype(np.float64)
                signs *= 2.0
                signs -= 1.0
                np.copyto(values, estimate(groups.rows(part), signs), where=trimmed[part])
            if lost is not None:
                np.copyto(values, 0.0, where=lost[part])

        return groups.decode(group)

    def _head_only(self, enc: EncodedGradient) -> Callable[[slice, np.ndarray], np.ndarray]:
        """Estimate of a group's coordinates from their heads alone.

        The returned ``estimate(rows, signs)`` gets the group's rows (a
        slice of the plan's rows: its coordinates, for a scalar code) and its
        head plane as float64 ``±1``, a scratch array it may scale in place
        and return; it is called for every group, in order.
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


def split_float32(values: np.ndarray, heads: np.ndarray, tails: np.ndarray) -> None:
    """A row group's true-sign heads (1 for non-negative, which
    ``unpack_signs`` reads as +1) and exponent+mantissa tails, cut from one
    float32 image: sign-magnitude's and the RHT's split, exact without a
    correction bit."""
    bits = values.astype(np.float32).view(np.uint32)
    np.right_shift(bits, np.uint32(31), out=heads)
    heads ^= np.uint32(1)
    np.bitwise_and(bits, np.uint32(0x7FFFFFFF), out=tails)


def compose_float32(sign_bits: np.ndarray, rest_bits: np.ndarray) -> np.ndarray:
    """Rebuild float32 values from sign and exponent+mantissa bits.

    Only bit 0 of ``sign_bits`` and bits 0-30 of ``rest_bits`` are read
    (the shift and the mask drop the rest), so hostile wire values cannot
    leak into the other field.  The result is float32: a decoder widens it
    straight into its float64 output.
    """
    word = np.asarray(sign_bits, dtype=np.uint32) << np.uint32(31)
    word |= np.asarray(rest_bits, dtype=np.uint32) & np.uint32(0x7FFFFFFF)
    return word.view(np.float32)


def nmse(original: np.ndarray, decoded: np.ndarray) -> float:
    """Normalized mean squared error ``‖x - x̂‖² / ‖x‖²``."""
    original = np.asarray(original, dtype=np.float64).reshape(-1)
    decoded = np.asarray(decoded, dtype=np.float64).reshape(-1)
    denom = float(np.dot(original, original))
    if denom <= 0.0:
        return float(np.dot(decoded, decoded))
    diff = original - decoded
    return float(np.dot(diff, diff) / denom)
