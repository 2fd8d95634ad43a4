"""Gradient channels: how one worker's message crosses the network.

The paper's prototype hooks PyTorch DDP's gradient-aggregation step and
simulates congestion by probabilistically trimming the gradient stream.
A :class:`GradientChannel` is exactly that pluggable seam: collectives
push each flat float vector through a channel, and the channel decides what
the far side receives — unchanged (:class:`PerfectChannel`), or
compressed by a codec + Bernoulli packet trimming
(:class:`repro.train.TrimChannel`), or routed through the full
discrete-event network.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import Optional, Sequence

import numpy as np

from ..obs.metrics import get_registry
from ..packet.packet import Packet

__all__ = ["ChannelStats", "GradientChannel", "PerfectChannel"]


@dataclass
class ChannelStats:
    """Byte and packet accounting for everything a channel carried."""

    messages: int = 0
    coordinates: int = 0
    packets_total: int = 0
    packets_trimmed: int = 0
    packets_dropped: int = 0
    bytes_sent: int = 0
    # Rounds where the transport surrendered (or the whole message was
    # lost) and the trainer took a degraded step instead of hanging.
    rounds_surrendered: int = 0

    @property
    def trim_fraction(self) -> float:
        """Fraction of data packets that were trimmed."""
        if self.packets_total == 0:
            return 0.0
        return self.packets_trimmed / self.packets_total

    def as_dict(self) -> dict:
        return {**asdict(self), "trim_fraction": self.trim_fraction}

    def count_wire(
        self, coords: int, packets: int, wire: Optional[Sequence[Packet]]
    ) -> int:
        """Count one message of ``coords`` coordinates, cut into ``packets``
        data packets, of which ``wire`` arrived (None: nothing did).

        ``wire`` is what the receiver decodes: the metadata packet first,
        then the data packets that arrived, whole or cut.  Returns how
        many of those arrived cut.
        """
        self.messages += 1
        self.coordinates += coords
        if wire is None:
            return 0
        trimmed = size = 0
        for packet in wire:  # once: every carrier of the cluster runs this
            size += packet.wire_size
            if packet.trimmed_from is not None:
                trimmed += 1
        self.packets_total += packets
        self.packets_trimmed += trimmed
        self.packets_dropped += packets - (len(wire) - 1)
        self.bytes_sent += size
        return trimmed


class GradientChannel:
    """Interface: transfer one flat vector from a worker to its peer."""

    def __init__(self) -> None:
        # One object for the channel's whole life (reset_stats zeroes it
        # in place), so the registry and a trainer can hold on to it.
        self.stats = ChannelStats()
        registry = get_registry()
        label = type(self).__name__
        self._publish_metrics = registry.publish_tally(self, self.stats, {
            "rounds_surrendered": registry.counter(
                "repro_channel_rounds_surrendered_total", ("channel",)
            ),
            "packets_dropped": registry.counter(
                "repro_channel_packets_dropped_total", ("channel",)
            ),
        }, channel=label)

    def count_surrender(self) -> None:
        """Record one surrendered round."""
        self.stats.rounds_surrendered += 1

    def transfer(
        self, flat: np.ndarray, *, epoch: int = 0, message_id: int = 0, worker: int = 0
    ) -> np.ndarray:
        """Deliver ``flat``; returns what the receiver decodes.

        ``epoch``/``message_id`` derive shared randomness (rotation seeds,
        dither); ``worker`` separates the trim pattern of different
        senders in the same round.
        """
        raise NotImplementedError

    def reset_stats(self) -> None:
        """Zero ``stats`` in place; the registry keeps its running totals."""
        self._publish_metrics()
        for spec in fields(self.stats):
            setattr(self.stats, spec.name, spec.default)
        self._publish_metrics()  # a counter back at zero only moves the mark


class PerfectChannel(GradientChannel):
    """Lossless, compression-free delivery (the NCCL-quality baseline)."""

    def transfer(
        self, flat: np.ndarray, *, epoch: int = 0, message_id: int = 0, worker: int = 0
    ) -> np.ndarray:
        flat = np.asarray(flat, dtype=np.float64)
        self.stats.messages += 1
        self.stats.coordinates += flat.size
        self.stats.bytes_sent += flat.size * 4  # fp32 on the wire
        return flat.copy()
