"""Fixed reference kernel: the ledger's yardstick for host speed.

Every timed unit is bracketed by one run of this kernel, and unit times
are reported relative to it (see ``protocol.normalise``).  The kernel
has two parts, timed separately, because the box this ledger was built
on slows down in two independent ways:

* ``interp`` — a bytecode-bound loop over small ints, a short list and a
  dict, all cache-resident.  It tracks the core's effective clock: the
  host flips every few seconds between two states about 25 % apart
  (turbo / a busy sibling thread), and interpreter-bound work such as
  the simulator's event loop follows that flip one to one.
* ``stream`` — ``packbits`` / ``astype`` passes over 4 MB numpy arrays.
  It tracks memory bandwidth, which the clock flip does not touch and a
  noisy neighbour does; the codec and bit-packing side follows it.

Neither part ever changes: a change here silently rescales every
number in the ledger.
"""

from __future__ import annotations

import gc
import time
from typing import NamedTuple

import numpy as np

#: What the two parts cost on the host the ledger is normalised to.
NOMINAL_INTERP_S = 0.025
NOMINAL_STREAM_S = 0.025

_INTERP_STEPS = 240_000
_ARRAY_BYTES = 4 << 20
_STREAM_PASSES = 10


class RefSample(NamedTuple):
    """One kernel run: wall seconds of each part."""

    interp_s: float
    stream_s: float

    @property
    def total_s(self) -> float:
        return self.interp_s + self.stream_s


class RefKernel:
    """Pre-built inputs plus :meth:`run`."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20240)
        self._bits = rng.integers(0, 2, size=_ARRAY_BYTES, dtype=np.uint8)
        self._words = rng.integers(0, 1 << 31, size=_ARRAY_BYTES // 4, dtype=np.uint32)

    def run(self) -> RefSample:
        """One pass over the fixed work (GC off inside)."""
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            ring = [0] * 64
            seen: dict = {}
            x = 0
            for i in range(_INTERP_STEPS):
                x = (x * 31 + i) & 0xFFFF
                slot = x & 63
                ring[slot] = ring[slot] + 1
                seen[slot] = x
            middle = time.perf_counter()
            for _ in range(_STREAM_PASSES):
                np.unpackbits(np.packbits(self._bits))
                self._words.astype(np.float64).astype(np.float32)
            return RefSample(middle - start, time.perf_counter() - middle)
        finally:
            if was_enabled:
                gc.enable()
