"""Devices and links.

A :class:`Device` is anything with a name that can receive packets (hosts
and switches).  A :class:`Link` is a *unidirectional* serializer: it owns
an egress queue, transmits one packet at a time at its line rate, and
delivers to the peer device after the propagation delay.  Bidirectional
cables are simply two Links.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, List, Optional, Tuple, Union

import numpy as np

from ..obs.int_telemetry import DECISION_TRIM, REASON_LINK_IMPAIRMENT, hop_id
from ..obs.metrics import get_registry
from ..obs.trace import get_tracer
from ..packet.packet import Packet
from .queues import ByteQueue, PriorityQueue
from .simulator import Simulator

__all__ = ["Device", "Link", "DeliveryHook"]

#: Fault-injection seam: maps a packet about to cross the wire to the
#: list of ``(extra_delay_s, packet)`` deliveries that actually happen.
#: ``[(0.0, packet)]`` is a clean pass-through; ``[]`` drops it; two
#: entries duplicate it; a positive delay jitters/reorders it; a mutated
#: copy corrupts it.  Installed by :class:`repro.faults.FaultInjector`.
DeliveryHook = Callable[["Packet"], List[Tuple[float, "Packet"]]]


class Device:
    """Base class for hosts and switches."""

    def __init__(self, name: str, sim: Simulator) -> None:
        self.name = name
        self.sim = sim

    def receive(self, packet: Packet, ingress: "Link") -> None:
        """Handle a packet delivered by ``ingress``."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"


@dataclass(slots=True)
class _LinkTally:
    """What one link counted; outlives the link until the registry has it."""

    packets_sent: int = 0
    bytes_sent: int = 0
    packets_dropped: int = 0  # lost to probabilistic impairment
    packets_trimmed: int = 0  # trimmed by probabilistic impairment


class Link:
    """One direction of a cable: egress queue + serializer + wire.

    Attributes:
        src: name of the transmitting device (for traces).
        dst: device at the far end.
        rate_bps: line rate in bits per second.
        delay_s: propagation delay in seconds.
        queue: the egress queue feeding this link.
        burst: serializer batch size.  With ``burst > 1`` a clean link
            (up, unimpaired, no delivery hook) pops up to ``burst``
            queued packets at once and schedules their deliveries at the
            exact per-packet cumulative serialization times, ~half the
            simulator events.  The batch is fixed when it is popped, so a
            higher-band packet queued meanwhile waits for the whole batch
            where the one-at-a-time path sends it next: host queues are
            two-band too, and a host's ACK can land later.
            ``Network.connect`` applies it to host uplinks alone; switch
            egress, where the express band carries trimmed headers, is
            always per-packet.
    """

    #: Batch size Network.connect applies to host uplinks.
    HOST_BURST = 8

    def __init__(
        self,
        sim: Simulator,
        src: str,
        dst: Device,
        rate_bps: float,
        delay_s: float,
        queue: Union[ByteQueue, PriorityQueue],
        drop_prob: float = 0.0,
        trim_prob: float = 0.0,
        seed: int = 0,
        burst: int = 1,
    ) -> None:
        if rate_bps <= 0:
            raise ValueError(f"rate must be positive, got {rate_bps}")
        if delay_s < 0:
            raise ValueError(f"delay must be non-negative, got {delay_s}")
        if not 0.0 <= drop_prob <= 1.0 or not 0.0 <= trim_prob <= 1.0:
            raise ValueError("drop_prob and trim_prob must be in [0, 1]")
        self.sim = sim
        self.src = src
        self.dst = dst
        self.rate_bps = rate_bps
        self.delay_s = delay_s
        self.queue = queue
        # Probabilistic impairment, mirroring the paper's evaluation
        # methodology ("pre-set random probabilistic dropping/trimming,
        # both in the software layer and on our SmartNIC").  Control
        # packets (ACKs) are never impaired — they are tiny and travel in
        # the express band.
        if burst < 1:
            raise ValueError(f"burst must be >= 1, got {burst}")
        self.drop_prob = drop_prob
        self.trim_prob = trim_prob
        self.burst = burst
        self._rng = np.random.default_rng(seed)
        self._busy = False
        # Fault-injection state: a downed link (flap) loses everything it
        # finishes serializing; the delivery hook lets an injector drop,
        # corrupt, duplicate or delay individual packets deterministically.
        self.up = True
        self.delivery_hook: Optional[DeliveryHook] = None
        self.packets_lost_down = 0
        # The serializer writes the tally and nothing else; the link's
        # public counters read it, and so does the registry when it is
        # flushed (see MetricsRegistry.add_flush_hook).
        self._tally = _LinkTally()
        label = f"{src}->{dst.name}"
        registry = get_registry()
        registry.publish_tally(self, self._tally, {
            "packets_sent": registry.counter(
                "repro_link_packets_sent_total", ("link",)
            ).bind(link=label),
            "bytes_sent": registry.counter(
                "repro_link_bytes_sent_total", ("link",)
            ).bind(link=label),
            "packets_dropped": registry.counter(
                "repro_link_packets_dropped_total", ("link",)
            ).bind(link=label),
            "packets_trimmed": registry.counter(
                "repro_link_packets_trimmed_total", ("link",)
            ).bind(link=label),
        })
        self._label = label
        # Stable small-integer id this link stamps into INT records when
        # probabilistic impairment trims a packet in flight.
        self._int_hop = hop_id(label)
        # Prebuilt bound methods for Simulator.schedule_call: the hot
        # path posts (delay, fn, packet) tuples instead of allocating a
        # closure + Event per packet.
        self._finish_cb = self._finish
        self._finish_burst_cb = self._finish_burst
        # Bound scheduler entry point, cached once per link: the
        # profiler times events at the dispatch level (run_profiled),
        # so caching it cannot hide anything from it.
        self._sched_call = sim.schedule_call

    # The public counters are read-only views of the tally.
    packets_sent = property(attrgetter("_tally.packets_sent"))
    bytes_sent = property(attrgetter("_tally.bytes_sent"))
    packets_dropped = property(attrgetter("_tally.packets_dropped"))
    packets_trimmed = property(attrgetter("_tally.packets_trimmed"))

    @property
    def busy(self) -> bool:
        """True while a packet is being serialized."""
        return self._busy

    def enqueue(self, packet: Packet) -> bool:
        """Push into the egress queue and kick the serializer.

        Returns False when the queue rejected the packet (caller decides
        whether to trim or drop).
        """
        accepted = self.queue.push(packet)
        if accepted and not self._busy:
            self._try_transmit()
        return accepted

    def _try_transmit(self) -> None:
        if self._busy:
            return
        if (
            self.burst > 1
            and self.up
            and self.delivery_hook is None
            and self.drop_prob == 0.0
            and self.trim_prob == 0.0
        ):
            self._try_transmit_burst()
            return
        packet = self.queue.pop()
        if packet is None:
            return
        self._busy = True
        self._sched_call(
            packet.wire_size * 8.0 / self.rate_bps, self._finish_cb, packet
        )

    def _try_transmit_burst(self) -> None:
        """Serialize up to ``burst`` queued packets as one event batch.

        Deliveries land at ``cumulative tx time + delay`` — exactly when
        the serial path would deliver them (a packet arriving mid-burst
        waits for the burst to finish, just as it would wait for the
        serializer) — and one completion event replaces ``burst``
        per-packet ``_finish`` events.  Callers guarantee the link is
        clean (up, no hook, no impairment): the fault injector pins
        ``burst = 1`` on every link it touches so faults keep their
        per-packet semantics.
        """
        packets: List[Packet] = []
        queue = self.queue
        while len(packets) < self.burst:
            packet = queue.pop()
            if packet is None:
                break
            packets.append(packet)
        if not packets:
            return
        self._busy = True
        rate = self.rate_bps
        delay = self.delay_s
        recv = self.dst.receive
        sched = self._sched_call
        offset = 0.0
        for packet in packets:
            offset += packet.wire_size * 8.0 / rate
            sched(offset + delay, recv, packet)
        sched(offset, self._finish_burst_cb, packets)

    def _finish_burst(self, packets: List[Packet]) -> None:
        self._busy = False
        size = 0
        for packet in packets:
            size += packet.wire_size
        tally = self._tally
        tally.packets_sent += len(packets)
        tally.bytes_sent += size
        self._try_transmit()

    def _finish(self, packet: Packet) -> None:
        tally = self._tally
        tally.packets_sent += 1
        tally.bytes_sent += packet.wire_size
        if (
            self.up
            and self.delivery_hook is None
            and (packet.is_ack or (self.drop_prob == 0.0 and self.trim_prob == 0.0))
        ):
            # Clean wire: deliver after propagation and immediately refill
            # the serializer.  Identical event structure to the general
            # path below, minus allocations and impairment draws.
            sched = self._sched_call
            sched(self.delay_s, self.dst.receive, packet)
            if self.burst == 1:
                # Refill here instead of round-tripping through
                # _try_transmit; _busy stays True across the pop (nothing
                # reentrant runs inside it).
                nxt = self.queue.pop()
                if nxt is None:
                    self._busy = False
                else:
                    sched(
                        nxt.wire_size * 8.0 / self.rate_bps, self._finish_cb, nxt
                    )
                return
            self._busy = False
            self._try_transmit()
            return
        self._busy = False
        if not self.up:
            # The cable is flapped down: everything on the wire is lost,
            # control packets included — a dead link spares nothing.
            self.packets_lost_down += 1
            tracer = get_tracer()
            if tracer.enabled:
                tracer.event(
                    "link.down_loss",
                    sim_time=self.sim.now,
                    link=self._label,
                    flow_id=packet.flow_id,
                    seq=packet.seq,
                )
            self._try_transmit()
            return
        delivered: Optional[Packet] = packet
        if not packet.is_ack:
            if self.drop_prob > 0.0 and self._rng.random() < self.drop_prob:
                delivered = None
                tally.packets_dropped += 1
                tracer = get_tracer()
                if tracer.enabled:
                    tracer.event(
                        "link.drop",
                        sim_time=self.sim.now,
                        link=self._label,
                        flow_id=packet.flow_id,
                        seq=packet.seq,
                    )
            elif (
                self.trim_prob > 0.0
                and packet.trimmable_bytes() is not None
                and self._rng.random() < self.trim_prob
            ):
                delivered = packet.trim()
                if delivered.int_ext is not None:
                    delivered.int_ext.stamp(
                        self._int_hop,
                        DECISION_TRIM,
                        REASON_LINK_IMPAIRMENT,
                        self.sim.now,
                    )
                tally.packets_trimmed += 1
                tracer = get_tracer()
                if tracer.enabled:
                    tracer.event(
                        "link.trim",
                        sim_time=self.sim.now,
                        link=self._label,
                        flow_id=packet.flow_id,
                        seq=packet.seq,
                    )
        if delivered is not None:
            deliveries: List[Tuple[float, Packet]] = [(0.0, delivered)]
            if self.delivery_hook is not None:
                deliveries = self.delivery_hook(delivered)
            for extra_delay, final in deliveries:
                self._sched_call(
                    self.delay_s + extra_delay, self.dst.receive, final
                )
        self._try_transmit()

    def utilization(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` seconds spent transmitting."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.bytes_sent * 8.0 / self.rate_bps / elapsed)
