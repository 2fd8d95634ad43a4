"""Shared-randomness pseudo-random streams.

Subtractive dithering (SD) and the Randomized Hadamard Transform (RHT)
both rely on the sender and the receiver drawing *identical* random values
without communicating them.  The paper (Section 4) achieves this by calling
``torch.cuda.manual_seed`` with a combination of the training epoch number
and the collective-communication message id on every worker.

This module provides the equivalent facility for the numpy substrate: a
deterministic mapping from a structured key — ``(root_seed, epoch,
message_id, purpose)`` — to an independent ``numpy.random.Generator``.
The mapping is counter-based (Philox under the hood via ``SeedSequence``),
so any party that knows the key can regenerate the stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# Distinct sub-stream purposes.  Using disjoint integers (rather than
# hashing strings) keeps the seed derivation portable and reproducible
# across Python versions and processes.
_PURPOSES = {
    "dither": 1,
    "rotation": 2,
    "quantize": 3,
    "trim": 4,
    "data": 5,
    "init": 6,
    "crosstraffic": 7,
    "fault": 8,
    "ecmp": 9,
    "campaign": 10,
}


@dataclass(frozen=True)
class StreamKey:
    """Identifies one shared pseudo-random stream.

    Attributes:
        root_seed: experiment-wide seed, agreed out of band.
        epoch: training epoch (or any coarse round counter).
        message_id: collective-communication message id within the epoch.
        purpose: a key of ``_PURPOSES`` — keeps e.g. dither and rotation
            streams independent even for the same message.
    """

    root_seed: int
    epoch: int = 0
    message_id: int = 0
    purpose: str = "dither"

    def __post_init__(self) -> None:
        if self.purpose not in _PURPOSES:
            raise ValueError(
                f"unknown purpose {self.purpose!r}; expected one of {sorted(_PURPOSES)}"
            )

    def spawn(self) -> np.random.Generator:
        """Create the generator for this key (identical on all parties)."""
        seq = np.random.SeedSequence(
            entropy=self.root_seed,
            spawn_key=(self.epoch, self.message_id, _PURPOSES[self.purpose]),
        )
        return np.random.Generator(np.random.Philox(seq))


def shared_generator(
    root_seed: int, epoch: int = 0, message_id: int = 0, purpose: str = "dither"
) -> np.random.Generator:
    """Convenience wrapper: build the generator for a :class:`StreamKey`."""
    return StreamKey(root_seed, epoch, message_id, purpose).spawn()


@lru_cache(maxsize=8)
def derive_seed(
    root_seed: int, epoch: int = 0, message_id: int = 0, purpose: str = "rotation"
) -> int:
    """Derive a single 63-bit integer seed from a stream key.

    Useful where an API takes a plain integer seed (e.g. the packetizer
    header carries the rotation seed so a late-joining receiver can decode).
    Every worker of a job derives the same key for a message, and building
    the generator costs more than encoding a small one, so a key is
    derived once.  Sized like ``rotation._cached_signs``: one entry per
    concurrent job collects every hit, since a message's key is never
    derived again once its wave has been decoded.
    """
    gen = shared_generator(root_seed, epoch, message_id, purpose)
    return int(gen.integers(0, 2**63 - 1))
