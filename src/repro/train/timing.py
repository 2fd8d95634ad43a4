"""Calibrated round-time cost model (wall clock for Figures 3-5).

Our substrate is a CPU simulator, so absolute GPU wall-clock cannot be
measured directly.  Figures 3-5 compare *relative* per-round times, and
those are reconstructed from three ingredients:

1. **Compute** — a fixed per-round cost representing the forward+backward
   pass on the paper's GPU (calibrated to a VGG-19/CIFAR-100 batch).
2. **Encode/decode** — anchored to the paper's measured fact that the
   hook adds ~42-68 % per round for scalar codecs, with the *relative*
   cost between codecs taken from this machine's measured per-coordinate
   throughput (RHT costs more than SQ/SD by the FWHT's O(log n) factor —
   the paper measured ≈18 %).
3. **Communication** — bytes on the wire over the link bandwidth.
   Trimming *reduces* bytes (trimmed packets are ~1/32 size).

The constants below are the whole calibration, each with its provenance,
so EXPERIMENTS.md can state exactly what was assumed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional

from ..transforms.prng import shared_generator

__all__ = ["RoundTime", "RoundTimeModel", "measure_codec_throughput"]

#: Testbed link rate (paper: 100 Gb/s DAC).
BANDWIDTH_BPS = 100e9
#: Propagation + switching latency per message.
BASE_RTT_S = 10e-6
#: GPU forward+backward per round (order of VGG-19 @ 64).
COMPUTE_S = 40e-3
#: Fixed DDP-hook callback cost per round (the paper attributes much of
#: its 42-68 % overhead to this).
HOOK_OVERHEAD_S = 12e-3
#: Encode+decode cost of the *scalar* codecs as a fraction of
#: ``COMPUTE_S`` (anchors the 42-68 % range together with
#: ``HOOK_OVERHEAD_S``).
ENCODE_FRACTION_SCALAR = 0.2
#: Packet size.
MTU_BYTES = 1500


@dataclass
class RoundTime:
    """Per-round wall-clock breakdown (the Figure 5 bars)."""

    compute_s: float
    encode_s: float
    comm_s: float

    @property
    def total_s(self) -> float:
        return self.compute_s + self.encode_s + self.comm_s

    def as_dict(self) -> Dict[str, float]:
        return {
            "compute_s": self.compute_s,
            "encode_s": self.encode_s,
            "comm_s": self.comm_s,
            "total_s": self.total_s,
        }


def measure_codec_throughput(
    codec_names=("sign", "sq", "sd", "rht"),
    num_coords: int = 2**17,
    repeats: int = 3,
    seed: int = 0,
) -> Dict[str, float]:
    """Measured encode+decode nanoseconds per coordinate, per codec.

    This is the *relative* cost input of the timing model — the same
    measurement the paper performs on its GPU, run here on the numpy
    implementations.
    """
    from ..core.codec import codec_by_name

    rng = shared_generator(seed, purpose="data")
    flat = rng.standard_normal(num_coords)
    results: Dict[str, float] = {}
    for name in codec_names:
        codec = codec_by_name(name, root_seed=seed)
        best = float("inf")
        for rep in range(repeats):
            start = time.perf_counter()
            enc = codec.encode(flat, epoch=rep, message_id=1)
            codec.decode(enc)
            best = min(best, time.perf_counter() - start)
        results[name] = best / num_coords * 1e9
    return results


class RoundTimeModel:
    """Convert per-round counters into modeled wall-clock seconds."""

    def __init__(self, codec_ns_per_coord: Optional[Dict[str, float]] = None) -> None:
        # Relative codec costs; measured lazily on first use if absent.
        self._codec_ns = codec_ns_per_coord

    @property
    def codec_ns_per_coord(self) -> Dict[str, float]:
        if self._codec_ns is None:
            self._codec_ns = measure_codec_throughput()
        return self._codec_ns

    def _encode_seconds(self, codec_name: Optional[str], num_coords: int) -> float:
        """Encode+decode cost, anchored to scalar == fraction of compute."""
        if codec_name is None:
            return 0.0
        table = self.codec_ns_per_coord
        if codec_name not in table:
            raise KeyError(f"no throughput measurement for codec {codec_name!r}")
        scalar_ns = table.get("sq", min(table.values()))
        relative = table[codec_name] / scalar_ns
        return ENCODE_FRACTION_SCALAR * COMPUTE_S * relative

    def _message_bytes(
        self, num_coords: int, trim_rate: float, codec_name: Optional[str]
    ) -> float:
        payload = MTU_BYTES - 42
        if codec_name is None:
            return num_coords * 4 * (MTU_BYTES / payload)
        # Trimmed packets carry 1 bit per coordinate instead of 32.
        full = num_coords * 4 * (MTU_BYTES / payload)
        trimmed_size_fraction = 1.0 / 32.0 + 74.0 / MTU_BYTES  # heads + headers
        return full * ((1 - trim_rate) + trim_rate * trimmed_size_fraction)

    def round_time(
        self,
        num_coords: int,
        codec_name: Optional[str] = None,
        trim_rate: float = 0.0,
        world_size: int = 2,
    ) -> RoundTime:
        """Model one synchronous training round.

        Args:
            num_coords: gradient length (all workers equal).
            codec_name: None for the uncompressed baseline.
            trim_rate: fraction of packets trimmed (trimmable path).
            world_size: ring width — bytes scale with the all-reduce's
                2(N-1)/N factor.
        """
        encode = self._encode_seconds(codec_name, num_coords)
        hook = HOOK_OVERHEAD_S if codec_name is not None else 0.0
        bytes_on_wire = self._message_bytes(num_coords, trim_rate, codec_name)
        bytes_on_wire *= 2.0 * (world_size - 1) / world_size
        comm = bytes_on_wire * 8.0 / BANDWIDTH_BPS + BASE_RTT_S
        return RoundTime(compute_s=COMPUTE_S, encode_s=encode + hook, comm_s=comm)

