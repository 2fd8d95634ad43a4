"""The row-group pass is invisible in the bytes.

Every codec's ``encode`` and ``decode`` take a message a row group at a
time (``core.codec.RowGroups``, groups of at most ``hadamard._TILE``
coordinates).  Nothing a codec computes may depend on where a group
ends: its planes, its metadata and every decode are the same bytes when
the whole message is one group.  That covers σ (one whole-message
reduction), the per-row scales, and SQ's and SD's shared randomness (one
generator read group after group).
"""

import numpy as np
import pytest

import repro.core.codec as codec_module
from repro.core import codec_by_name

ROTATING = ("rht", "eden", "multilevel")
#: (codec, row size): rows narrower than, equal to and wider than a group.
CONFIGS = [("sign", None), ("sq", None), ("sd", None)] + [
    (name, row) for name in ROTATING for row in (4096, 2**15, 2**16)
]


def run(name, row, gradient):
    """Every byte a message's encode and decodes produce."""
    codec = codec_by_name(name, root_seed=5, **({"row_size": row} if row else {}))
    enc = codec.encode(gradient, epoch=2, message_id=9)
    rng = np.random.default_rng(gradient.size)
    trimmed = rng.random(enc.length) < 0.3
    missing = rng.random(enc.length) < 0.05
    out = [enc.heads, enc.tails, enc.metadata.to_bytes()]
    for masks in ({}, {"trimmed": trimmed}, {"trimmed": trimmed, "missing": missing}):
        out.append(codec.decode(enc, **masks))
    if name == "multilevel":
        enc.depth = rng.choice(np.array([0, 1, 8, 32], dtype=np.uint8), size=enc.length)
        out.append(codec.decode(enc))
    return [bytes(part) if isinstance(part, bytes) else part.tobytes() for part in out]


@pytest.mark.parametrize("length", [100_003, 2**17 + 5])
@pytest.mark.parametrize("name, row", CONFIGS, ids=lambda v: str(v))
def test_one_group_per_message_gives_the_same_bytes(name, row, length, monkeypatch):
    gradient = np.random.default_rng(length).standard_normal(length)
    grouped = run(name, row, gradient)
    monkeypatch.setattr(codec_module, "_TILE", 1 << 30)
    assert run(name, row, gradient) == grouped
