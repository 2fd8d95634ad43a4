"""Background traffic generators.

The paper's setting is a *shared* fabric: training flows collide with
"other bursty traffic".  Two standard generators create that pressure:

* :class:`OnOffFlow` — exponential on/off UDP-like traffic at a target
  rate during bursts (web/storage background load).
* :class:`IncastBurst` — ``fan_in`` senders each fire a burst at one
  receiver simultaneously (the partition/aggregate pattern that causes
  the sudden queue overflow trimming is designed to absorb).
"""

from __future__ import annotations

import zlib
from typing import Optional

from ..packet.packet import Packet
from ..transforms.prng import shared_generator
from .host import Host
from .simulator import Simulator

__all__ = ["OnOffFlow", "IncastBurst", "CROSS_TRAFFIC_FLOW_BASE"]

#: Flow-id space reserved for background traffic, away from transports.
CROSS_TRAFFIC_FLOW_BASE = 1_000_000


def _derived_flow_id(src: str, dst: str) -> int:
    """Stable flow id for a (src, dst) pair.

    ``hash()`` on strings varies with ``PYTHONHASHSEED``, which would
    give background flows different ids (and different trace logs) on
    every run; CRC32 is stable across processes and platforms.
    """
    return CROSS_TRAFFIC_FLOW_BASE + zlib.crc32(f"{src}->{dst}".encode()) % 100_000


def _payload_bytes(packet_bytes: int) -> int:
    """Payload of a ``packet_bytes`` filler packet; it must carry one."""
    if packet_bytes <= 42:
        raise ValueError(
            f"packet_bytes must exceed the 42-byte wire header, got {packet_bytes}"
        )
    return packet_bytes - 42


class OnOffFlow:
    """Exponential on/off constant-bit-rate background flow.

    During an "on" period (mean ``burst_s``) it emits ``packet_bytes``
    packets back-to-back at ``rate_bps``; "off" periods have mean
    ``idle_s``.  Average offered load is ``rate * burst/(burst+idle)``.
    """

    def __init__(
        self,
        sim: Simulator,
        src: Host,
        dst: str,
        rate_bps: float,
        burst_s: float = 100e-6,
        idle_s: float = 100e-6,
        packet_bytes: int = 1458,
        seed: int = 0,
        flow_id: Optional[int] = None,
        stop_at: Optional[float] = None,
    ) -> None:
        self.sim = sim
        self.src = src
        self.dst = dst
        self.rate_bps = rate_bps
        self.burst_s = burst_s
        self.idle_s = idle_s
        self.packet_bytes = packet_bytes
        self.stop_at = stop_at
        self.flow_id = flow_id if flow_id is not None else _derived_flow_id(src.name, dst)
        self._rng = shared_generator(seed, purpose="crosstraffic")
        self.packets_emitted = 0
        self._active = False
        # Hot-path state: one shared payload object for every filler
        # packet (the bytes are never mutated in flight) and the end of
        # the burst in progress, so the pacing callback needs no closure.
        self._payload = b"\x00" * _payload_bytes(packet_bytes)
        self._burst_until = 0.0

    def start(self, delay: float = 0.0) -> None:
        """Begin the on/off cycle ``delay`` seconds from now."""
        self._active = True
        self.sim.schedule(delay, self._begin_burst)

    def stop(self) -> None:
        """Cease after the current packet."""
        self._active = False

    def _stopped(self) -> bool:
        return not self._active or (
            self.stop_at is not None and self.sim.now >= self.stop_at
        )

    def _begin_burst(self) -> None:
        if self._stopped():
            return
        duration = self._rng.exponential(self.burst_s)
        self._burst_until = self.sim.now + duration
        self._emit()

    def _emit(self) -> None:
        if self._stopped():
            return
        sim = self.sim
        if sim.now >= self._burst_until:
            sim.schedule(self._rng.exponential(self.idle_s), self._begin_burst)
            return
        packet = Packet(self.src.name, self.dst, self._payload, 0, self.flow_id)
        self.src.send(packet)
        self.packets_emitted += 1
        # Unbound method + self: a pacing tick that allocates no closure.
        sim.schedule_call(
            packet.wire_size * 8.0 / self.rate_bps, OnOffFlow._emit, self
        )


class IncastBurst:
    """Synchronized incast: many senders, one receiver, one instant.

    Each sender transmits ``burst_bytes`` in MTU packets starting at
    ``at`` (plus optional per-sender jitter), producing the transient
    buffer overflow that motivates trimming.
    """

    def __init__(
        self,
        sim: Simulator,
        senders: list[Host],
        dst: str,
        burst_bytes: int = 100_000,
        packet_bytes: int = 1458,
        jitter_s: float = 0.0,
        seed: int = 0,
        flow_id_base: Optional[int] = None,
    ) -> None:
        self._chunk = _payload_bytes(packet_bytes)
        self.sim = sim
        self.senders = senders
        self.dst = dst
        self.burst_bytes = burst_bytes
        self.packet_bytes = packet_bytes
        self.jitter_s = jitter_s
        self._rng = shared_generator(seed, purpose="crosstraffic")
        self.flow_id_base = (
            flow_id_base if flow_id_base is not None else CROSS_TRAFFIC_FLOW_BASE + 500_000
        )
        self.packets_emitted = 0

    def fire(self, at: float = 0.0) -> None:
        """Schedule the burst to start ``at`` seconds from now."""
        for rank, sender in enumerate(self.senders):
            jitter = self._rng.uniform(0, self.jitter_s) if self.jitter_s else 0.0
            self.sim.schedule(at + jitter, lambda s=sender, r=rank: self._blast(s, r))

    def _blast(self, sender: Host, rank: int) -> None:
        # Full packets sharing one payload object, then the remainder.
        chunk = self._chunk
        count, rest = divmod(max(self.burst_bytes, 0), chunk)
        full = b"\x00" * chunk
        src, dst, flow_id = sender.name, self.dst, self.flow_id_base + rank
        send = sender.send
        for _ in range(count):
            send(Packet(src, dst, full, 0, flow_id))
        if rest:
            send(Packet(src, dst, b"\x00" * rest, 0, flow_id))
        self.packets_emitted += count + (rest > 0)
