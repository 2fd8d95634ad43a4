"""Go-back-N reliable transport — the NCCL/RoCE-style baseline.

The paper's baseline *ccl* "provide[s] strict reliability semantics" and
relies on retransmission when the fabric is not lossless.  RoCE NICs
implement exactly go-back-N: the receiver only accepts in-order packets,
and any gap forces the sender to rewind and re-send the whole window.
This is why the baseline tolerates only ~0.2 % drops (Section 4.4): at
1–2 % loss almost every window rewinds, multiplying bytes on the wire
and stalling rounds on retransmission timeouts.

Trimmed packets are *useless* to this transport — the baseline does not
understand the trimmable layout, so a trimmed arrival is treated as a
loss, exactly like NCCL dropping a corrupted frame.
"""

from __future__ import annotations

from operator import attrgetter
from types import SimpleNamespace
from typing import Any, Callable, List, Optional

from ..net.host import Host
from ..obs.int_telemetry import get_int_collector
from ..obs.metrics import get_registry
from ..packet.packet import Packet
from .base import MessageSenderBase

__all__ = ["GoBackNSender", "GoBackNReceiver"]

_ACK_NONE = -1  # cumulative ACK value before anything arrived


class GoBackNSender(MessageSenderBase):
    """Window-paced sender with cumulative ACKs and window rewind."""

    def __init__(self, *args: Any, dupack_threshold: int = 3, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.dupack_threshold = dupack_threshold
        self._base = 0
        self._next = 0
        self._dupacks = 0
        # One fast-retransmit recovery episode per window: without this,
        # a rewind burst that itself overflows the bottleneck queue
        # triggers dup-ACKs that trigger another full rewind, forever
        # (a classic go-back-N livelock under burst loss).
        self._recovering = False

    def _reset_state(self) -> None:
        self._base = 0
        self._next = 0
        self._dupacks = 0
        self._recovering = False
        self._send_times.clear()

    def _pump(self) -> None:
        total = len(self._packets)
        while self._next < total and self._next < self._base + self.cc.window:
            self._emit(self._next, retransmission=self._next in self._send_times)
            self._next += 1
        if self._base < total and self._timer is None:
            self._arm_timer()

    def _handle_control(self, packet: Packet) -> None:
        ack = packet.seq  # cumulative: everything through `ack` received
        if ack >= self._base:
            self._sample_rtt(ack)
            self._base = ack + 1
            self._dupacks = 0
            self._recovering = False  # progress ends the recovery episode
            self.cc.on_ack(ecn=packet.ecn)
            if self._base >= len(self._packets):
                self._complete()
                return
            self._arm_timer()
            self._pump()
        else:
            # Duplicate cumulative ACK: the receiver is discarding
            # out-of-order packets beyond a gap.  At most one rewind per
            # recovery episode; the RTO backstops a lost rewind.
            self._dupacks += 1
            if self._dupacks >= self.dupack_threshold and not self._recovering:
                self._dupacks = 0
                self._recovering = True
                self.cc.on_loss()
                self._rewind()

    def _on_timeout(self) -> None:
        self._recovering = False  # a timeout starts recovery afresh
        self._rewind()

    def _rewind(self) -> None:
        """Go-back-N: restart transmission from the first unacked packet."""
        self._next = self._base
        self._arm_timer()
        self._pump()


class GoBackNReceiver:
    """In-order receiver with cumulative ACKs.

    Args:
        host: the receiving endpoint.
        flow_id: flow to listen on.
        on_message: called with the in-order packet list when complete.
    """

    def __init__(
        self,
        host: Host,
        flow_id: int,
        on_message: Optional[Callable[[List[Packet]], None]] = None,
    ) -> None:
        self.host = host
        self.sim = host.sim
        self.flow_id = flow_id
        self.on_message = on_message
        self._expected = 0
        self._delivered: List[Packet] = []
        self._total: Optional[int] = None
        self._peer: Optional[str] = None
        # What the receiver counted; outlives it until the registry has it.
        self._tally = SimpleNamespace(
            trimmed_rejected=0, out_of_order_discarded=0, corrupt_rejected=0
        )
        transport = type(self).__name__
        registry = get_registry()
        registry.publish_tally(self, self._tally, {
            "trimmed_rejected": registry.counter(
                "repro_transport_trimmed_rejected_total",
                "trimmed packets the trim-oblivious baseline treated as losses",
                ("transport",),
            ).bind(transport=transport),
            "corrupt_rejected": registry.counter(
                "repro_transport_corrupt_rejected_total",
                "packets failing checksum verification, treated as losses",
                ("transport",),
            ).bind(transport=transport),
            "out_of_order_discarded": registry.counter(
                "repro_transport_out_of_order_discarded_total",
                "out-of-order packets discarded by the in-order receiver",
                ("transport",),
            ).bind(transport=transport),
        })
        host.register_flow(flow_id, self._on_packet)

    trimmed_rejected = property(attrgetter("_tally.trimmed_rejected"))
    out_of_order_discarded = property(attrgetter("_tally.out_of_order_discarded"))
    corrupt_rejected = property(attrgetter("_tally.corrupt_rejected"))

    @property
    def complete(self) -> bool:
        """True once the full message has been delivered in order."""
        return self._total is not None and self._expected >= self._total

    def _on_packet(self, packet: Packet) -> None:
        if packet.is_ack:
            return
        self._peer = packet.src
        self._total = packet.seq_total or self._total
        if not packet.verify():
            # Checksum mismatch: the payload was corrupted in flight.  A
            # reliable transport never delivers garbage — treat it as a
            # loss and let the cumulative ACK drive a retransmission.
            self._tally.corrupt_rejected += 1
            self._send_cumulative_ack(ecn=packet.ecn)
            return
        if packet.is_trimmed:
            # The baseline cannot use a trimmed payload: count it as lost.
            self._tally.trimmed_rejected += 1
            self._send_cumulative_ack(ecn=packet.ecn)
            return
        if packet.seq == self._expected:
            self._delivered.append(packet)
            self._expected += 1
            if packet.int_ext is not None:
                get_int_collector().collect(packet)
        elif packet.seq > self._expected:
            self._tally.out_of_order_discarded += 1
        # seq < expected: retransmitted duplicate of old data; just re-ACK.
        self._send_cumulative_ack(ecn=packet.ecn)
        if self.complete and self.on_message is not None:
            callback, self.on_message = self.on_message, None
            callback(list(self._delivered))

    def _send_cumulative_ack(self, ecn: bool) -> None:
        if self._peer is None:
            return
        ack = Packet(
            src=self.host.name,
            dst=self._peer,
            is_ack=True,
            seq=self._expected - 1 if self._expected else _ACK_NONE,
            flow_id=self.flow_id,
            priority=2,
            ecn=ecn,
        )
        self.host.send(ack)


GoBackNSender.receiver_class = GoBackNReceiver
