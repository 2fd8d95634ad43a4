"""Reliable metadata side-channel for trimmable gradients.

Every codec in Section 3 ships a little out-of-band state that must *not*
be trimmed: the gradient's standard deviation ``σ`` (sign-magnitude), the
clipping range ``L = 2.5σ`` (SQ/SD, TernGrad-style), or the per-row
unbiased scales ``f = ‖V‖₂²/‖R(V)‖₁`` (RHT).  The paper sends these "in a
small packet that will not be trimmed"; here :class:`GradientMetadata` is
that packet's payload, with a compact binary serialization so the
simulator can actually carry it on the wire (flagged ``FLAG_METADATA`` so
switches refuse to trim it).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

__all__ = ["GradientMetadata"]

#: The fixed fields, then the counts of row scales and of aux scales; the
#: scales follow as big-endian float32, rows first.
_FIXED = struct.Struct(">IHIIQddII")


@dataclass
class GradientMetadata:
    """Out-of-band decoding state for one collective message.

    Attributes:
        message_id: collective-communication message id.
        epoch: training epoch (with message_id, derives shared randomness).
        original_length: number of coordinates in the flat gradient.
        row_size: RHT row width (power of two), 0 for scalar codecs.
        seed: shared-randomness seed for rotation / dither.
        sigma: standard deviation of the original gradient.
        scale: clipping range ``L`` (SQ/SD) — 0 when unused.
        row_scales: per-row unbiased scales ``f`` (RHT) — empty otherwise.
        aux_scales: extra per-row scales (multi-level 8-bit plane range A).
    """

    message_id: int
    epoch: int
    original_length: int
    row_size: int
    seed: int
    sigma: float
    scale: float = 0.0
    row_scales: np.ndarray = field(default_factory=lambda: np.zeros(0))
    aux_scales: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def to_bytes(self) -> bytes:
        """Serialize to the reliable small-packet payload."""
        rows = np.asarray(self.row_scales, dtype=np.float64)
        aux = np.asarray(self.aux_scales, dtype=np.float64)
        fixed = _FIXED.pack(
            self.message_id,
            self.epoch,
            self.original_length,
            self.row_size,
            self.seed,
            self.sigma,
            self.scale,
            rows.size,
            aux.size,
        )
        return fixed + rows.astype(">f4").tobytes() + aux.astype(">f4").tobytes()

    @classmethod
    def from_bytes(cls, data: bytes) -> "GradientMetadata":
        """Parse :meth:`to_bytes` output."""
        if len(data) < _FIXED.size:
            raise ValueError(f"metadata payload too short: {len(data)} bytes")
        (
            message_id,
            epoch,
            original_length,
            row_size,
            seed,
            sigma,
            scale,
            n_rows,
            n_aux,
        ) = _FIXED.unpack_from(data)
        need = _FIXED.size + 4 * (n_rows + n_aux)
        if len(data) < need:
            raise ValueError(f"metadata payload truncated: {len(data)} < {need}")
        scales = np.frombuffer(data, dtype=">f4", count=n_rows + n_aux, offset=_FIXED.size)
        scales = scales.astype(np.float64)
        rows, aux = scales[:n_rows], scales[n_rows:]
        return cls(
            message_id=message_id,
            epoch=epoch,
            original_length=original_length,
            row_size=row_size,
            seed=seed,
            sigma=sigma,
            scale=scale,
            row_scales=rows,
            aux_scales=aux,
        )

    @property
    def encoded_length(self) -> int:
        """Coordinates the message carries: ``original_length``, padded to
        whole rows for the rotating codecs (``row_size`` > 0)."""
        if self.row_size <= 0:
            return self.original_length
        return -(-self.original_length // self.row_size) * self.row_size

    @property
    def wire_bytes(self) -> int:
        """Size of the serialized metadata payload."""
        return _FIXED.size + 4 * (
            np.asarray(self.row_scales).size + np.asarray(self.aux_scales).size
        )
