"""The codec arithmetic against its slow, obvious oracle, bit for bit.

PR 20 rewrote ``encode`` / ``decode`` of the sign, SQ, SD and RHT codecs
(one float32 image per encode, in-place integer ops, selects that only run
when their mask selects something, an inverse rotation in place).  The old
bodies live in ``codec_oracle.py`` next to this file; here every codec ×
length × input × trimmed mask × missing mask must produce the same heads,
tails, metadata bytes and decoded bytes as the oracle — including after
every shared-randomness cache was cleared (a miss must never change a
bit) — without writing to anything it was handed.
"""

import numpy as np
import pytest

import repro.transforms.rotation as rotation
from repro.core import codec_by_name

from .codec_oracle import oracle_decode, oracle_encode

ROOT_SEED = 20
CODECS = {
    "sign": ("sign", {}),
    "sq": ("sq", {}),
    "sd": ("sd", {}),
    "rht64": ("rht", {"row_size": 64}),
    "rht4096": ("rht", {"row_size": 4096}),
}
#: Around one MTU-1500 packet (356 coordinates), around one 4096 row, one
#: coordinate, and a length that is a multiple of nothing.
LENGTHS = [1, 7, 355, 356, 357, 4095, 4096, 4097, 100_003]
INPUTS = ["gaussian", "student_t3", "zeros", "outlier", "signed_zeros_denormals"]
BLOCK = 356


def make_input(kind: str, n: int) -> np.ndarray:
    rng = np.random.default_rng(n)
    if kind == "gaussian":
        return rng.standard_normal(n)
    if kind == "student_t3":
        return rng.standard_t(3, size=n)
    if kind == "zeros":
        return np.zeros(n)
    if kind == "outlier":
        flat = rng.standard_normal(n)
        flat[n // 2] = -1e30
        return flat
    # +-0.0, float64 and float32 denormals, the smallest float64, and a
    # few ordinary values so that sigma is not itself denormal.
    cycle = [0.0, -0.0, 1e-310, -1e-310, 1e-42, -1e-42, 5e-324, 1.0, -1.0, -5e-324]
    return np.resize(np.array(cycle), n)


def block_mask(n: int, share: float, seed: int) -> np.ndarray:
    """Whole 356-coordinate packets, ``share`` of them (at least one)."""
    blocks = -(-n // BLOCK)
    rng = np.random.default_rng(seed)
    chosen = rng.permutation(blocks)[: max(1, round(share * blocks))]
    return np.isin(np.arange(n) // BLOCK, chosen)


def one_coordinate(n: int, index: int) -> np.ndarray:
    mask = np.zeros(n, dtype=bool)
    mask[index] = True
    return mask


def trimmed_masks(n: int):
    return {
        "none": None,
        "all_false": np.zeros(n, dtype=bool),
        "one": one_coordinate(n, n // 3),
        "blocks50": block_mask(n, 0.5, seed=1),
        "all_true": np.ones(n, dtype=bool),
    }


def missing_masks(n: int):
    return {
        "none": None,
        "all_false": np.zeros(n, dtype=bool),
        "one": one_coordinate(n, (2 * n) // 3),
        "blocks10": block_mask(n, 0.1, seed=2),
    }


def clear_caches() -> None:
    """The sign diagonals are the one shared-randomness cache left."""
    rotation._cached_signs.cache_clear()


def frozen(array):
    if array is not None:
        array.setflags(write=False)
    return array


@pytest.mark.parametrize("kind", INPUTS)
@pytest.mark.parametrize("length", LENGTHS)
@pytest.mark.parametrize("label", CODECS)
def test_bit_identical_to_the_oracle(label, length, kind):
    name, options = CODECS[label]
    codec = codec_by_name(name, root_seed=ROOT_SEED, **options)
    flat = frozen(make_input(kind, length))
    untouched = flat.tobytes()
    key = {"epoch": 3, "message_id": length % 1000 + 1}

    enc = codec.encode(flat, **key)
    ref = oracle_encode(name, flat, root_seed=ROOT_SEED, **key, **options)
    assert flat.tobytes() == untouched
    assert (enc.codec_id, enc.head_bits, enc.tail_bits, enc.length) == (
        ref.codec_id, ref.head_bits, ref.tail_bits, ref.length,
    )  # fmt: skip
    assert enc.heads.dtype == ref.heads.dtype == np.uint32
    assert enc.tails.dtype == ref.tails.dtype == np.uint32
    assert np.array_equal(enc.heads, ref.heads)
    assert np.array_equal(enc.tails, ref.tails)
    assert enc.metadata.to_bytes() == ref.metadata.to_bytes()
    assert enc.metadata.sigma == ref.metadata.sigma and enc.metadata.scale == ref.metadata.scale
    assert np.array_equal(enc.metadata.row_scales, ref.metadata.row_scales)
    # An encode that missed every cache produces the same bits.
    clear_caches()
    again = codec.encode(flat, **key)
    assert np.array_equal(again.heads, enc.heads) and np.array_equal(again.tails, enc.tails)

    frozen(enc.heads), frozen(enc.tails)
    heads, tails = enc.heads.tobytes(), enc.tails.tobytes()
    for trim_label, trimmed in trimmed_masks(enc.length).items():
        for miss_label, missing in missing_masks(enc.length).items():
            case = f"trimmed={trim_label} missing={miss_label}"
            frozen(trimmed), frozen(missing)
            expected = oracle_decode(name, ref, trimmed, missing, root_seed=ROOT_SEED)
            decoded = codec.decode(enc, trimmed=trimmed, missing=missing)
            assert decoded.dtype == expected.dtype == np.float64, case
            assert decoded.shape == expected.shape == (length,), case
            assert decoded.tobytes() == expected.tobytes(), case
            # A decode that misses every cache, and whose result must not
            # share storage with (or write to) the previous one.
            clear_caches()
            missed = codec.decode(enc, trimmed=trimmed, missing=missing)
            assert missed.tobytes() == expected.tobytes(), f"{case} after cache_clear"
            assert not np.shares_memory(missed, decoded), case
            assert decoded.tobytes() == expected.tobytes(), f"{case}: overwritten by the next decode"
            assert decoded.flags.writeable, case
    assert (enc.heads.tobytes(), enc.tails.tobytes()) == (heads, tails)


@pytest.mark.parametrize("label", CODECS)
def test_hostile_wire_values_decode_like_the_oracle(label):
    """Heads above 1 and tails with bit 31 set (a 31-bit plane cannot carry
    it, a hand-built or corrupted ``EncodedGradient`` can): only bit 0 of a
    head and bits 0-30 of a tail may reach the float."""
    name, options = CODECS[label]
    codec = codec_by_name(name, root_seed=ROOT_SEED, **options)
    flat = make_input("gaussian", 4097)
    enc = codec.encode(flat, epoch=1, message_id=2)
    ref = oracle_encode(name, flat, root_seed=ROOT_SEED, epoch=1, message_id=2, **options)
    junk = np.random.default_rng(5).integers(0, 2**31, size=ref.length, dtype=np.uint32) << 1
    for target in (enc, ref):
        target.tails = ref.tails | np.uint32(0x80000000)
        target.heads = ref.heads | junk
    clean = oracle_decode(name, oracle_encode(
        name, flat, root_seed=ROOT_SEED, epoch=1, message_id=2, **options
    ), root_seed=ROOT_SEED)  # fmt: skip
    for trimmed in (None, block_mask(enc.length, 0.5, seed=3)):
        expected = oracle_decode(name, ref, trimmed, root_seed=ROOT_SEED)
        assert codec.decode(enc, trimmed=trimmed).tobytes() == expected.tobytes()
    # With nothing trimmed the junk bits change nothing at all.
    assert codec.decode(enc).tobytes() == clean.tobytes()


def test_two_decodes_do_not_share_a_buffer():
    """Back-to-back decodes of different messages stay independent."""
    for label, (name, options) in CODECS.items():
        codec = codec_by_name(name, root_seed=ROOT_SEED, **options)
        first_in, second_in = make_input("gaussian", 5000), make_input("student_t3", 5000)
        first_enc = codec.encode(first_in, epoch=0, message_id=1)
        second_enc = codec.encode(second_in, epoch=0, message_id=2)
        first = codec.decode(first_enc)
        snapshot = first.tobytes()
        second = codec.decode(second_enc)
        assert not np.shares_memory(first, second), label
        assert first.tobytes() == snapshot, label
        first += 1.0  # the caller owns what decode returned
        assert codec.decode(first_enc).tobytes() == snapshot, label
