"""Slow, obvious codec arithmetic: the reference ``repro.core`` is tested against.

These are the ``encode`` / ``decode`` bodies of the sign, SQ, SD and RHT
codecs as they stood in ``src/`` from PR 1 to PR 19, moved here unchanged
when PR 20 rewrote them around one float32 image, in-place integer ops
and selects that only run when their mask selects something.  Every
value is computed the long way: two float32 conversions per encode, a
fresh temporary per operation, both ``np.where`` selects on every decode,
a zero-padded copy before the rotation, a copy before the inverse, the
textbook butterfly, and every shared-randomness stream drawn afresh (no
cache).  Its only job is to disagree with a fast path that gets a bit
wrong.  It shares the containers (``EncodedGradient``,
``GradientMetadata``) and the seed derivation (``repro.transforms.prng``,
which PR 20 did not touch) with the package and nothing else.
"""

from typing import Optional

import numpy as np

from repro.core.codec import EncodedGradient
from repro.core.metadata import GradientMetadata
from repro.transforms.prng import derive_seed, shared_generator

CODEC_IDS = {"sign": 1, "sq": 2, "sd": 3, "rht": 4}
CLIP_SIGMA_MULTIPLIER = 2.5


# -- float32 bit surgery (repro.core.codec, PR 1-19) ----------------------------


def float32_sign_bits(values: np.ndarray) -> np.ndarray:
    bits = np.asarray(values, dtype=np.float32).view(np.uint32)
    return (bits >> np.uint32(31)) & np.uint32(1)


def float32_rest_bits(values: np.ndarray) -> np.ndarray:
    bits = np.asarray(values, dtype=np.float32).view(np.uint32)
    return bits & np.uint32(0x7FFFFFFF)


def compose_float32(sign_bits: np.ndarray, rest_bits: np.ndarray) -> np.ndarray:
    sign = (np.asarray(sign_bits, dtype=np.uint32) & np.uint32(1)) << np.uint32(31)
    rest = np.asarray(rest_bits, dtype=np.uint32) & np.uint32(0x7FFFFFFF)
    return (sign | rest).view(np.float32).astype(np.float64)


def _corrected_tail(head: np.ndarray, values: np.ndarray) -> np.ndarray:
    s_plus = (1 - float32_sign_bits(values)).astype(np.uint32)
    correction = (head ^ s_plus) & np.uint32(1)
    rest30 = float32_rest_bits(values) >> np.uint32(1)
    return (correction << np.uint32(30)) | rest30


def _decode_corrected(head: np.ndarray, tails: np.ndarray) -> np.ndarray:
    correction = (tails >> np.uint32(30)) & np.uint32(1)
    rest31 = (tails & np.uint32(0x3FFFFFFF)) << np.uint32(1)
    s_plus = (head ^ correction) & np.uint32(1)
    return compose_float32(1 - s_plus, rest31)


# -- rotation (repro.transforms, PR 1-16 butterfly, PR 1-19 pad-and-copy) -------


def _fwht_inplace(x: np.ndarray) -> np.ndarray:
    d = x.shape[-1]
    h = 1
    while h < d:
        shaped = x.reshape(*x.shape[:-1], d // (2 * h), 2, h)
        a = shaped[..., 0, :].copy()
        b = shaped[..., 1, :]
        shaped[..., 0, :] = a + b
        shaped[..., 1, :] = a - b
        h *= 2
    x *= 1.0 / np.sqrt(d)
    return x


def _random_signs(d: int, seed: int) -> np.ndarray:
    gen = shared_generator(seed, purpose="rotation")
    return gen.integers(0, 2, size=d).astype(np.float64) * 2.0 - 1.0


def _rotate_rows(flat: np.ndarray, row_size: int, seed: int) -> np.ndarray:
    n = flat.size
    if n < row_size:
        width, num_rows = 1 << (n - 1).bit_length(), 1
    else:
        width, num_rows = row_size, -(-n // row_size)
    padded = np.zeros(num_rows * width, dtype=np.float64)
    padded[:n] = flat
    rows = padded.reshape(num_rows, width)
    return _fwht_inplace(np.asarray(rows, dtype=np.float64) * _random_signs(width, seed))


def _unrotate_rows(rows: np.ndarray, seed: int, original_length: int) -> np.ndarray:
    out = np.array(rows, dtype=np.float64, copy=True)
    _fwht_inplace(out)
    out *= _random_signs(rows.shape[-1], seed)
    return out.reshape(-1)[:original_length]


# -- the four codecs ----------------------------------------------------------------


def _masks(enc: EncodedGradient, trimmed, missing):
    mask = np.zeros(enc.length, dtype=bool) if trimmed is None else np.asarray(trimmed, dtype=bool)
    lost = np.zeros(enc.length, dtype=bool) if missing is None else np.asarray(missing, dtype=bool)
    return mask.reshape(-1), lost.reshape(-1)


def _dither(root_seed: int, epoch: int, message_id: int, scale: float, n: int) -> np.ndarray:
    gen = shared_generator(root_seed, epoch, message_id, purpose="dither")
    return gen.uniform(-scale, scale, size=n)


def oracle_encode(
    name: str,
    flat: np.ndarray,
    *,
    root_seed: int = 0,
    epoch: int = 0,
    message_id: int = 0,
    row_size: int = 2**15,
) -> EncodedGradient:
    """``codec_by_name(name, root_seed=..., [row_size=...]).encode(flat, ...)``, PR 19's way."""
    flat = np.asarray(flat, dtype=np.float64).reshape(-1)
    scale = 0.0
    seed = root_seed
    width = 0
    row_scales = np.zeros(0)
    sigma = float(np.std(flat))
    if name == "sign":
        heads = (1 - float32_sign_bits(flat)).astype(np.uint32)
        tails = float32_rest_bits(flat)
    elif name == "sq":
        scale = CLIP_SIGMA_MULTIPLIER * sigma
        if scale > 0:
            clipped = np.clip(flat, -scale, scale)
            p_plus = (scale + clipped) / (2.0 * scale)
        else:
            p_plus = np.full(flat.size, 0.5)
        gen = shared_generator(root_seed, epoch, message_id, purpose="quantize")
        heads = (gen.random(flat.size) < p_plus).astype(np.uint32)
        tails = _corrected_tail(heads, flat)
    elif name == "sd":
        scale = CLIP_SIGMA_MULTIPLIER * sigma
        dither = _dither(root_seed, epoch, message_id, scale, flat.size)
        clipped = np.clip(flat, -scale, scale) if scale > 0 else flat
        heads = (clipped + dither >= 0).astype(np.uint32)
        tails = _corrected_tail(heads, flat)
    elif name == "rht":
        seed = derive_seed(root_seed, epoch, message_id, purpose="rotation")
        rows = _rotate_rows(flat, row_size, seed)
        width = rows.shape[1]
        l2sq = np.sum(rows * rows, axis=1)
        l1 = np.sum(np.abs(rows), axis=1)
        row_scales = np.divide(l2sq, l1, out=np.zeros_like(l2sq), where=l1 > 0)
        coords = rows.reshape(-1)
        heads = (1 - float32_sign_bits(coords)).astype(np.uint32)
        tails = float32_rest_bits(coords)
    else:
        raise KeyError(name)
    return EncodedGradient(
        codec_id=CODEC_IDS[name],
        head_bits=1,
        tail_bits=31,
        length=heads.size,
        heads=heads,
        tails=tails,
        metadata=GradientMetadata(
            message_id=message_id,
            epoch=epoch,
            original_length=flat.size,
            row_size=width,
            seed=seed,
            sigma=sigma,
            scale=scale,
            row_scales=row_scales,
        ),
    )


def oracle_decode(
    name: str,
    enc: EncodedGradient,
    trimmed: Optional[np.ndarray] = None,
    missing: Optional[np.ndarray] = None,
    *,
    root_seed: int = 0,
) -> np.ndarray:
    """``codec.decode(enc, trimmed, missing)``, PR 19's way: both selects, always."""
    mask, lost = _masks(enc, trimmed, missing)
    meta = enc.metadata
    signs = enc.heads.astype(np.float64) * 2.0 - 1.0
    if name == "sign":
        exact = compose_float32(1 - enc.heads, enc.tails)
        decoded = np.where(mask, signs * meta.sigma, exact)
        return np.where(lost, 0.0, decoded)
    if name == "sq":
        exact = _decode_corrected(enc.heads, enc.tails)
        decoded = np.where(mask, signs * meta.scale, exact)
        return np.where(lost, 0.0, decoded)
    if name == "sd":
        exact = _decode_corrected(enc.heads, enc.tails)
        dither = _dither(root_seed, meta.epoch, meta.message_id, meta.scale, enc.length)
        decoded = np.where(mask, signs * meta.scale - dither, exact)
        return np.where(lost, 0.0, decoded)
    if name == "rht":
        width = meta.row_size
        exact = compose_float32(1 - enc.heads, enc.tails)
        scales = np.repeat(np.asarray(meta.row_scales, dtype=np.float64), width)
        r_hat = np.where(mask, signs * scales, exact)
        r_hat = np.where(lost, 0.0, r_hat).reshape(enc.length // width, width)
        return _unrotate_rows(r_hat, meta.seed, meta.original_length)
    raise KeyError(name)
