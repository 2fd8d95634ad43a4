"""Multi-level trimmable encoding (paper Section 5.1, future work).

The paper's two-tier code supports exactly one trim depth (keep ``P`` of
``P+Q`` bits).  Section 5.1 asks for *versatile* encodings where a switch
can choose among several trim depths according to congestion — e.g. trim
a packet to ~25 % size (8 bits/coordinate) under mild congestion or ~3 %
(1 bit) under heavy congestion.

This module implements a three-plane tiered code over RHT-rotated rows:

* **plane 0 — 1 bit**: ``sign(r)``; decodes as ``f·sign(r)`` with the
  DRIVE scale ``f`` (identical to :class:`~repro.core.rht.RHTCodec`).
* **plane 1 — 7 bits**: magnitude ``m = ⌊|r|/A·128⌋`` against the per-row
  range ``A = max|r|``; together with the sign it decodes as the midpoint
  ``±(m+½)·A/128`` — an 8-bit uniform quantizer.
* **plane 2 — 24 bits**: the residual ``r - r̂₈`` uniformly quantized over
  ``±A/128``, restoring near-full precision (error ≤ A·2⁻³², below fp32
  resolution for these rows).

Planes are laid out contiguously (all signs, then all magnitudes, then
all residuals), so a switch can cut at the 1-bit or 8-bit plane boundary
with :func:`repro.packet.trim.trim_to_bits` — no arithmetic needed, just
a shorter keep-length, exactly the paper's "trim to 25 % or 3 %".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from ..packet.bitpack import pack_bits, packed_size, unpack_bits
from ..packet.header import (
    FLAG_METADATA,
    FLAG_TRIMMED,
    GRADIENT_HEADER_BYTES,
    HEADER_VIEW,
    MAGIC,
    GradientHeader,
)
from ..packet.packet import DEFAULT_MTU_BYTES, Packet
from ..transforms.prng import derive_seed
from ..transforms.rotation import RotatedRows, rotate_rows, unrotate_rows
from .metadata import GradientMetadata
from .packetizer import Groups, check_grid
from .rht import DEFAULT_ROW_SIZE, unbiased_row_scales

__all__ = [
    "MULTILEVEL_CODEC_ID",
    "PLANE_BITS",
    "LEVEL_BITS",
    "MultiLevelEncoded",
    "MultiLevelCodec",
]

MULTILEVEL_CODEC_ID = 5
#: Bit width of each plane, front-of-packet first.
PLANE_BITS = (1, 7, 24)
#: Decodable prefix depths: sign-only, sign+magnitude, full.
LEVEL_BITS = (1, 8, 32)

_MAG_STEPS = 128  # 7-bit magnitude plane resolution
_RES_LEVELS = (1 << 24) - 1  # 24-bit residual plane resolution
#: What every packet of one message shares; a trim moves bits from the
#: tail to the head, so it is their sum that is shared.
_IDENTITY = ("version", "codec_id", "code bits", "message_id", "epoch", "seed")


@dataclass
class MultiLevelEncoded:
    """Three-plane encoding of one gradient blob.

    Attributes:
        signs: plane 0, 1-bit codes (1 = non-negative rotated coord).
        magnitudes: plane 1, 7-bit codes.
        residuals: plane 2, 24-bit codes.
        metadata: row scales ``f`` (1-bit decode) in ``row_scales`` and
            ranges ``A`` (8-bit decode) in ``aux_scales``.
        length: padded coordinate count (multiple of the row size).
    """

    signs: np.ndarray
    magnitudes: np.ndarray
    residuals: np.ndarray
    metadata: GradientMetadata
    length: int


class MultiLevelCodec:
    """Tiered 1/8/32-bit trimmable codec (Section 5.1)."""

    name = "multilevel"
    codec_id = MULTILEVEL_CODEC_ID

    def __init__(self, root_seed: int = 0, row_size: int = DEFAULT_ROW_SIZE) -> None:
        self.root_seed = root_seed
        self.row_size = row_size

    # -- array level -------------------------------------------------------

    def encode(
        self, flat: np.ndarray, *, epoch: int = 0, message_id: int = 0
    ) -> MultiLevelEncoded:
        """Rotate, then split every coordinate into the three planes."""
        flat = np.asarray(flat, dtype=np.float64).reshape(-1)
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
        return MultiLevelEncoded(
            signs=signs.reshape(-1),
            magnitudes=mags.reshape(-1),
            residuals=res_codes.reshape(-1),
            metadata=metadata,
            length=rows.size,
        )

    def decode(self, enc: MultiLevelEncoded, levels: Optional[np.ndarray] = None) -> np.ndarray:
        """Decode given the per-coordinate received depth.

        ``levels[i]`` is the number of code bits that survived for
        coordinate ``i``: 32 (full), 8, 1, or 0 (packet lost).  ``None``
        means everything arrived untrimmed.
        """
        meta = enc.metadata
        width = meta.row_size
        num_rows = enc.length // width
        if levels is None:
            levels = np.full(enc.length, LEVEL_BITS[-1], dtype=np.int64)
        levels = np.asarray(levels, dtype=np.int64).reshape(-1)
        if levels.shape != (enc.length,):
            raise ValueError(f"levels shape {levels.shape} != ({enc.length},)")
        bad = ~np.isin(levels, (0,) + LEVEL_BITS)
        if bad.any():
            raise ValueError(f"invalid level values: {np.unique(levels[bad])}")

        sign_values = enc.signs.astype(np.float64) * 2.0 - 1.0
        f_scales = np.repeat(np.asarray(meta.row_scales, dtype=np.float64), width)
        ranges = np.repeat(np.asarray(meta.aux_scales, dtype=np.float64), width)
        step = ranges / _MAG_STEPS

        mid = (enc.magnitudes.astype(np.float64) + 0.5) * step
        r8 = sign_values * mid
        residual = (enc.residuals.astype(np.float64) / _RES_LEVELS * 2.0 - 1.0) * step
        r_full = r8 + residual
        r1 = sign_values * f_scales

        r_hat = np.zeros(enc.length, dtype=np.float64)
        r_hat = np.where(levels == 1, r1, r_hat)
        r_hat = np.where(levels == 8, r8, r_hat)
        r_hat = np.where(levels == 32, r_full, r_hat)

        rotated = RotatedRows(
            rows=r_hat.reshape(num_rows, width),
            original_length=meta.original_length,
            row_size=width,
            seed=meta.seed,
        )
        return unrotate_rows(rotated)

    # -- packet level --------------------------------------------------------

    def packetize(
        self,
        enc: MultiLevelEncoded,
        src: str = "",
        dst: str = "",
        mtu: int = DEFAULT_MTU_BYTES,
        flow_id: int = 0,
    ) -> list[Packet]:
        """Wire layout: gradient header, sign plane, magnitude plane, residual plane."""
        meta = enc.metadata
        payload_bits = (mtu - 42 - GRADIENT_HEADER_BYTES) * 8
        n_per_packet = payload_bits // sum(PLANE_BITS)
        num_chunks = -(-enc.length // n_per_packet)

        def header(
            chunk_index: int, coord_offset: int, coord_count: int, flags: int = 0
        ) -> GradientHeader:
            return GradientHeader(
                codec_id=self.codec_id,
                head_bits=PLANE_BITS[0],
                tail_bits=sum(PLANE_BITS) - PLANE_BITS[0],
                message_id=meta.message_id,
                epoch=meta.epoch,
                chunk_index=chunk_index,
                coord_offset=coord_offset,
                coord_count=coord_count,
                seed=meta.seed,
                flags=flags,
            )

        packets = [
            Packet(
                src=src,
                dst=dst,
                payload=header(0, 0, 0, FLAG_METADATA).to_bytes() + meta.to_bytes(),
                priority=1,
                flow_id=flow_id,
            )
        ]
        # Every data packet's header, a row each: the run of full chunks,
        # then the final chunk with its own count.
        headers = np.empty((num_chunks, GRADIENT_HEADER_BYTES), dtype=np.uint8)
        header(1, 0, n_per_packet).pack_run(headers, n_per_packet)
        last = (num_chunks - 1) * n_per_packet
        header(num_chunks, last, enc.length - last).pack_into(headers[-1])
        for chunk, offset in enumerate(range(0, enc.length, n_per_packet)):
            end = min(offset + n_per_packet, enc.length)
            payload = (
                headers[chunk].tobytes()
                + pack_bits(enc.signs[offset:end], PLANE_BITS[0])
                + pack_bits(enc.magnitudes[offset:end], PLANE_BITS[1])
                + pack_bits(enc.residuals[offset:end], PLANE_BITS[2])
            )
            packets.append(
                Packet(src=src, dst=dst, payload=payload, flow_id=flow_id, seq=chunk + 1)
            )
        return packets

    def depacketize(
        self, packets: Iterable[Packet]
    ) -> tuple[MultiLevelEncoded, np.ndarray]:
        """Reassemble packets into planes plus the per-coordinate level array.

        A packet trimmed with :func:`~repro.packet.trim.trim_to_bits` to 8
        or 1 bits contributes the corresponding prefix planes; coordinates
        never seen get level 0.  Headers are read from the payload bytes
        and checked as :func:`~repro.core.packetizer.depacketize` checks
        them, except that the head / tail split may differ by trim depth.
        """
        meta_payload: Optional[bytes | memoryview] = None
        identity: Optional[tuple[int, ...]] = None
        groups: Groups = {}  # the kind is the arrived depth
        for pkt in packets:
            payload = pkt.payload
            if len(payload) < GRADIENT_HEADER_BYTES:
                raise ValueError(
                    f"gradient header needs {GRADIENT_HEADER_BYTES} bytes, got {len(payload)}"
                )
            fields = HEADER_VIEW.unpack_from(payload)
            magic, version, flags, codec_id, head_bits, tail_bits, message_id, epoch = fields[:8]
            chunk, lo, count, seed = fields[8:]
            if magic != MAGIC:
                raise ValueError(f"bad magic 0x{magic:04x}; not a gradient packet")
            its = (version, codec_id, head_bits + tail_bits, message_id, epoch, seed)
            if identity is None:
                identity = its
            elif its != identity:
                name, ours, theirs = next(d for d in zip(_IDENTITY, identity, its) if d[1] != d[2])
                raise ValueError(f"packets of two messages in one set: {name} {ours} != {theirs}")
            if flags & FLAG_METADATA:
                if meta_payload is not None and meta_payload != payload:
                    raise ValueError("two different metadata packets in one message")
                meta_payload = payload
                continue
            arrived_bits = head_bits if flags & FLAG_TRIMMED else head_bits + tail_bits
            if arrived_bits not in LEVEL_BITS:
                raise ValueError(f"packet trimmed to unsupported depth {arrived_bits}")
            key = (count, arrived_bits, lo == (chunk - 1) * count)
            groups.setdefault(key, []).append((lo, chunk, payload))
        if meta_payload is None:
            raise ValueError("metadata packet missing; multilevel decode needs row scales")
        metadata = GradientMetadata.from_bytes(meta_payload[GRADIENT_HEADER_BYTES:])
        length = metadata.encoded_length
        check_grid(groups, length)

        signs = np.zeros(length, dtype=np.uint32)
        mags = np.zeros(length, dtype=np.uint32)
        residuals = np.zeros(length, dtype=np.uint32)
        levels = np.zeros(length, dtype=np.int64)

        for (count, arrived_bits, _), members in groups.items():
            # The planes that arrived: as many as the arrived depth spans.
            arrived = PLANE_BITS[: LEVEL_BITS.index(arrived_bits) + 1]
            sizes = [packed_size(count, bits) for bits in arrived]
            for lo, _, payload in members:
                if lo + count > length:
                    raise ValueError(
                        f"packet covers coords [{lo},{lo + count}) beyond length {length}"
                    )
                if len(payload) != GRADIENT_HEADER_BYTES + sum(sizes):
                    raise ValueError(
                        f"need {sum(sizes)} payload bytes for {count} coords at {arrived_bits} "
                        f"bits, got {len(payload) - GRADIENT_HEADER_BYTES}"
                    )
                cursor = GRADIENT_HEADER_BYTES
                for plane, bits, size in zip((signs, mags, residuals), arrived, sizes):
                    plane[lo : lo + count] = unpack_bits(
                        payload[cursor : cursor + size], count, bits
                    )
                    cursor += size
                levels[lo : lo + count] = arrived_bits

        enc = MultiLevelEncoded(
            signs=signs,
            magnitudes=mags,
            residuals=residuals,
            metadata=metadata,
            length=length,
        )
        return enc, levels
