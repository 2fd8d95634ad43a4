"""Transport building blocks shared by the reliable and trimming stacks.

A transport *message* is a list of packets framed with ``seq`` in
``[0, seq_total)``.  Senders pace them with a congestion-control window,
receivers acknowledge, and a retransmission timer backstops losses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, ClassVar, List, Optional

from ..net.host import Host
from ..net.simulator import Event
from ..obs.metrics import get_registry
from ..obs.trace import get_tracer
from ..packet.packet import DEFAULT_MTU_BYTES, Packet
from .congestion import CongestionControl, FixedWindow

__all__ = [
    "segment_bytes", "control_packet", "RttEstimator", "MessageSenderBase", "TransportSurrender",
]


class TransportSurrender(RuntimeError):
    """A sender gave up on a message after exhausting its retry budget.

    Raised only when the caller asks for it (``send_message`` without an
    ``on_failure`` callback keeps the legacy silent-retry-forever
    behaviour unless ``max_retries`` is set); otherwise surfaced through
    the callback so the train loop can take a degraded step instead of
    deadlocking the round.
    """

    def __init__(self, flow_id: int, reason: str) -> None:
        super().__init__(f"flow {flow_id}: {reason}")
        self.flow_id = flow_id
        self.reason = reason


def segment_bytes(
    src: str,
    dst: str,
    num_bytes: int,
    flow_id: int,
    mtu: int = DEFAULT_MTU_BYTES,
) -> List[Packet]:
    """Split an opaque byte count into MTU-sized framed packets.

    Used for non-gradient traffic (and baseline benchmarks that treat
    the gradient as a black-box blob, exactly as NCCL does).
    """
    if num_bytes <= 0:
        raise ValueError(f"num_bytes must be positive, got {num_bytes}")
    payload_max = mtu - 42
    packets: List[Packet] = []
    remaining = num_bytes
    while remaining > 0:
        size = min(payload_max, remaining)
        packets.append(Packet(src=src, dst=dst, payload=b"\x00" * size, flow_id=flow_id))
        remaining -= size
    for i, pkt in enumerate(packets):
        pkt.seq = i
        pkt.seq_total = len(packets)
    return packets


def control_packet(
    src: str, dst: str, flow_id: int, seq: int,
    nack: bool, pull: bool, trimmed_echo: bool, ecn: bool,
) -> Packet:
    """The ACK or NACK a receiver answers a data packet with (express band,
    no payload); every receiver builds its control packets here."""
    # By position (src, dst, payload, priority, flow_id, seq, seq_total,
    # is_ack, nack, pull, trimmed_echo, ecn): one per data packet.
    return Packet(src, dst, b"", 2, flow_id, seq, 0, True, nack, pull, trimmed_echo, ecn)


class RttEstimator:
    """Jacobson-style smoothed RTT with a floor and backoff cap."""

    def __init__(self, rto_min: float = 100e-6, rto_max: float = 100e-3) -> None:
        self.rto_min = rto_min
        self.rto_max = rto_max
        self.srtt: Optional[float] = None
        self.rttvar: Optional[float] = None
        self._backoff = 1.0

    def sample(self, rtt: float) -> None:
        """Fold one RTT measurement in and reset timeout backoff."""
        if self.srtt is None or self.rttvar is None:
            self.srtt = rtt
            self.rttvar = rtt / 2
        else:
            self.rttvar = 0.75 * self.rttvar + 0.25 * abs(self.srtt - rtt)
            self.srtt = 0.875 * self.srtt + 0.125 * rtt
        self._backoff = 1.0

    def backoff(self) -> None:
        """Double the timeout after an expiry (capped by rto_max)."""
        self._backoff = min(self._backoff * 2.0, 64.0)

    @property
    def rto(self) -> float:
        """Current retransmission timeout."""
        if self.srtt is None:
            base = self.rto_min * 4
        else:
            base = self.srtt + 4 * (self.rttvar or 0.0)
        return min(self.rto_max, max(self.rto_min, base) * self._backoff)


@dataclass(slots=True)
class SenderTally:
    """What one sender counted; outlives it until the registry has it."""

    messages_delivered: int = 0
    packets_emitted: int = 0  # retransmissions included
    retransmissions: int = 0
    timeouts: int = 0
    surrenders: int = 0
    trims_reported: int = 0  # trimmed-echo ACKs (senders that take trims)


class MessageSenderBase:
    """Common sender state: framing, window pacing, timer, completion time.

    Subclasses implement ``_handle_control`` (ACK/NACK processing) and
    ``_on_timeout`` (recovery), call ``_pump`` to emit packets, and name
    the ``receiver_class`` a :class:`~repro.transport.transfer.Transfer`
    builds at the other end of their flow.
    """

    #: Builds the receiving end, called as ``(host, flow_id, on_message)``.
    receiver_class: ClassVar[Callable[[Host, int, Callable[[List[Packet]], None]], object]]

    def __init__(
        self,
        host: Host,
        flow_id: int,
        cc: Optional[CongestionControl] = None,
        rto_min: float = 100e-6,
        rto_max: float = 100e-3,
        max_retries: int = 200,
    ) -> None:
        self.host = host
        self.sim = host.sim
        self.flow_id = flow_id
        self.cc = cc or FixedWindow()
        self.rtt = RttEstimator(rto_min=rto_min, rto_max=rto_max)
        # Retry budget *per packet*: a sequence number re-sent more than
        # this many times means the path is not recovering (ACK blackout,
        # persistent corruption, a dead link) and the sender surrenders
        # with a clean error instead of livelocking the round.
        if max_retries < 1:
            raise ValueError(f"max_retries must be >= 1, got {max_retries}")
        self.max_retries = max_retries
        self._packets: List[Packet] = []
        self._send_times: dict[int, float] = {}
        self._retries_by_seq: dict[int, int] = {}
        self._timer: Optional[Event] = None
        self._on_complete: Optional[Callable[[], None]] = None
        self._on_failure: Optional[Callable[[TransportSurrender], None]] = None
        self._done = False
        self._failed: Optional[TransportSurrender] = None
        self._message_start = 0.0
        self._fct_s = math.inf
        # What the sender counted over its whole life (it may carry many
        # messages): the only thing the send path writes, and what the
        # registry reads when it is flushed.
        self.tally = SenderTally()
        self._retransmissions_before = 0
        # Causal spans: one per in-flight message, one per packet
        # emission (keyed by seq; a retransmission closes the stale span
        # before opening its own).
        self._message_span: Optional[int] = None
        self._packet_spans: dict[int, int] = {}
        transport = type(self).__name__
        registry = get_registry()
        registry.publish_tally(self, self.tally, {
            "messages_delivered": registry.counter(
                "repro_transport_messages_total", ("transport",)
            ),
            "packets_emitted": registry.counter(
                "repro_transport_packets_emitted_total", ("transport",)
            ),
            "retransmissions": registry.counter(
                "repro_transport_retransmissions_total", ("transport",)
            ),
            "timeouts": registry.counter("repro_transport_timeouts_total", ("transport",)),
            "surrenders": registry.counter("repro_transport_surrenders_total", ("transport",)),
        }, transport=transport)
        host.register_flow(flow_id, self._dispatch)

    def _publish_trims(self) -> None:
        """Publish ``tally.trims_reported``: for senders that take trims."""
        registry = get_registry()
        registry.publish_tally(self, self.tally, {
            "trims_reported": registry.counter(
                "repro_transport_trims_reported_total", ("transport",)
            ),
        }, transport=type(self).__name__)

    # -- public API ----------------------------------------------------------

    def send_message(
        self,
        packets: List[Packet],
        on_complete: Optional[Callable[[], None]] = None,
        on_failure: Optional[Callable[["TransportSurrender"], None]] = None,
    ) -> None:
        """Transmit a framed message; ``on_complete`` fires when delivered.

        ``on_failure`` fires (at most once) if the sender surrenders after
        a packet exhausts its ``max_retries`` budget — the clean error the
        train loop uses to take a degraded step instead of hanging.
        """
        if self._packets and not self._done and self._failed is None:
            raise RuntimeError(f"flow {self.flow_id}: message already in flight")
        if not packets:
            raise ValueError("cannot send an empty message")
        for i, pkt in enumerate(packets):
            pkt.seq = i
            pkt.seq_total = len(packets)
            pkt.flow_id = self.flow_id
            if pkt.checksum is None:
                pkt.seal()
        self._packets = packets
        self._on_complete = on_complete
        self._on_failure = on_failure
        self._done = False
        self._failed = None
        self._message_start = self.sim.now
        self._fct_s = math.inf
        self._retransmissions_before = self.tally.retransmissions
        self._retries_by_seq.clear()
        tracer = get_tracer()
        if tracer.enabled:
            self._message_span = tracer.begin(
                "transport.message",
                t=self.sim.now,
                transport=type(self).__name__,
                flow_id=self.flow_id,
                packets=len(packets),
            )
            self._packet_spans.clear()
        self._reset_state()
        self._pump()

    def close(self) -> None:
        """Stop for good: no retransmit timer left armed, flow unregistered.

        A carrier calls this when a message is over on its side —
        delivered, surrendered, or out of time — so nothing of this
        sender fires into whatever the network carries next.
        """
        self._cancel_timer()
        self.host.unregister_flow(self.flow_id)

    @property
    def done(self) -> bool:
        """True once every packet has been acknowledged."""
        return self._done

    @property
    def failed(self) -> bool:
        """True once the sender has surrendered this message."""
        return self._failed is not None

    @property
    def fct_s(self) -> float:
        """The last message's send to completing ACK, in simulated seconds.

        The ``fct_s`` of its ``transport.deliver`` event; inf until the
        message is delivered (a surrendered one never is).
        """
        return self._fct_s

    @property
    def failure(self) -> Optional["TransportSurrender"]:
        """The surrender error, if the sender gave up."""
        return self._failed

    # -- subclass hooks ---------------------------------------------------------

    def _reset_state(self) -> None:
        raise NotImplementedError

    def _pump(self) -> None:
        raise NotImplementedError

    def _handle_control(self, packet: Packet) -> None:
        raise NotImplementedError

    def _on_timeout(self) -> None:
        raise NotImplementedError

    # -- shared machinery ---------------------------------------------------------

    def _dispatch(self, packet: Packet) -> None:
        if packet.is_ack and not self._done and self._failed is None:
            self._handle_control(packet)

    def _emit(self, seq: int, retransmission: bool = False) -> None:
        if self._failed is not None:
            return
        original = self._packets[seq]
        packet = original.clone() if retransmission else original
        tracer = get_tracer()
        if retransmission:
            retries = self._retries_by_seq.get(seq, 0) + 1
            self._retries_by_seq[seq] = retries
            if retries > self.max_retries:
                self._surrender(
                    f"packet seq={seq} exceeded max_retries={self.max_retries}"
                )
                return
            self.tally.retransmissions += 1
            if tracer.enabled:
                tracer.event(
                    "transport.retransmit",
                    sim_time=self.sim.now,
                    transport=type(self).__name__,
                    flow_id=self.flow_id,
                    seq=seq,
                    attempt=retries,
                )
        if tracer.enabled:
            stale = self._packet_spans.pop(seq, None)
            if stale is not None:
                tracer.end(stale, t=self.sim.now, acked=False, superseded=True)
            span = tracer.begin(
                "transport.packet",
                t=self.sim.now,
                parent_id=self._message_span,
                seq=seq,
                retransmission=retransmission,
            )
            if span is not None:
                self._packet_spans[seq] = span
        self._send_times[seq] = self.sim.now
        self.tally.packets_emitted += 1
        self.host.send(packet)

    def _sample_rtt(self, seq: int) -> None:
        sent = self._send_times.pop(seq, None)
        if sent is not None:
            self.rtt.sample(self.sim.now - sent)
        tracer = get_tracer()
        if tracer.enabled:
            span = self._packet_spans.pop(seq, None)
            if span is not None:
                tracer.end(span, t=self.sim.now, acked=True)

    def _arm_timer(self) -> None:
        # Every ACK re-arms: a pending timer is moved rather than
        # cancelled and re-posted, so the heap gains no dead entry.
        if self._timer is None:
            self._timer = self.sim.schedule(self.rtt.rto, self._timer_fired)
        else:
            self._timer = self.sim.reschedule(self._timer, self.rtt.rto)

    def _cancel_timer(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _timer_fired(self) -> None:
        self._timer = None
        if self._done or self._failed is not None:
            return
        self.rtt.backoff()
        self.cc.on_loss()
        self.tally.timeouts += 1
        self._on_timeout()

    def _close_spans(self, outcome: str, reason: Optional[str] = None) -> None:
        """End every open packet span and the message span.

        Cumulative-ACK transports never sample each seq individually, so
        packet spans still open at completion close here (the delivery
        of the whole message acknowledges them); on surrender they close
        unacknowledged.
        """
        tracer = get_tracer()
        if not tracer.enabled:
            return
        acked = outcome == "delivered"
        for seq in sorted(self._packet_spans):
            tracer.end(self._packet_spans[seq], t=self.sim.now, acked=acked)
        self._packet_spans.clear()
        if self._message_span is not None:
            attrs: dict[str, Any] = {
                "outcome": outcome,
                "retransmissions": self.tally.retransmissions - self._retransmissions_before,
            }
            if reason is not None:
                attrs["reason"] = reason
            tracer.end(self._message_span, t=self.sim.now, **attrs)
            self._message_span = None

    def _surrender(self, reason: str) -> None:
        """Give up on the in-flight message with a clean, observable error."""
        if self._done or self._failed is not None:
            return
        error = TransportSurrender(self.flow_id, reason)
        self._failed = error
        self._cancel_timer()
        self.tally.surrenders += 1
        self._close_spans(outcome="surrendered", reason=reason)
        tracer = get_tracer()
        if tracer.enabled:
            tracer.event(
                "transport.surrender",
                sim_time=self.sim.now,
                transport=type(self).__name__,
                flow_id=self.flow_id,
                reason=reason,
                retransmissions=self.tally.retransmissions - self._retransmissions_before,
            )
        if self._on_failure is not None:
            self._on_failure(error)

    def _complete(self) -> None:
        if self._done or self._failed is not None:
            return
        self._done = True
        self._fct_s = self.sim.now - self._message_start
        self._cancel_timer()
        self.tally.messages_delivered += 1
        self._close_spans(outcome="delivered")
        tracer = get_tracer()
        if tracer.enabled:
            tracer.event(
                "transport.deliver",
                sim_time=self.sim.now,
                transport=type(self).__name__,
                flow_id=self.flow_id,
                packets=len(self._packets),
                retransmissions=self.tally.retransmissions - self._retransmissions_before,
                # Flow completion time is *simulated* seconds, so it lives
                # in fields rather than duration_s (wall-clock spans).
                fct_s=self._fct_s,
            )
        if self._on_complete is not None:
            self._on_complete()
