"""Slow, obvious bit packer: the reference ``repro.packet.bitpack`` is tested against.

One uint8 slot per *bit*: expand every value MSB-first, concatenate, and
let ``np.packbits`` / ``np.unpackbits`` do the byte boundary.  This was
the original implementation in ``src/`` (PR 1–16, as
``bitpack._pack_bits_generic`` / ``_unpack_bits_generic``); nothing there
called it any more, so it lives here, where its only job is to disagree
with a fast kernel that gets a bit wrong.  It shares no code with the
module under test.
"""

import numpy as np


def _pack_bits_generic(values: np.ndarray, bits: int) -> bytes:
    """Pack one flat array of ``bits``-wide values, any ``1 <= bits <= 32``."""
    values = np.asarray(values, dtype=np.uint64).reshape(-1)
    assert 1 <= bits <= 32 and (values.size == 0 or int(values.max()) < (1 << bits))
    shifts = np.arange(bits - 1, -1, -1, dtype=np.uint64)
    bitstream = ((values[:, None] >> shifts) & np.uint64(1)).astype(np.uint8)
    return np.packbits(bitstream.reshape(-1)).tobytes()


def _unpack_bits_generic(data: bytes, count: int, bits: int) -> np.ndarray:
    """Inverse of :func:`_pack_bits_generic`; trailing bytes are ignored."""
    need = -(-count * bits // 8)
    assert 1 <= bits <= 32 and len(data) >= need
    bitstream = np.unpackbits(np.frombuffer(data, dtype=np.uint8, count=need))
    stream = bitstream[: count * bits].reshape(count, bits).astype(np.uint64)
    shifts = np.arange(bits - 1, -1, -1, dtype=np.uint64)
    return (stream << shifts).sum(axis=1).astype(np.uint32)
