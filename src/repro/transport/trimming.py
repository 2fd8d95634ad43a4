"""Trimming-aware transport — the paper's data path.

NDP-style selective transport that understands trimmable gradients:

* A **trimmed gradient packet is a delivery**, not a loss.  The receiver
  keeps the decodable head, ACKs it (with ``trimmed_echo`` so the sender
  sees the congestion signal), and the message completes *without any
  retransmission* — the paper's central claim of consistent flow
  completion times with no stragglers.
* A trimmed **non-gradient** packet (the transport also carries opaque
  payloads) acts as an NDP NACK: the header's arrival proves the loss
  and triggers an immediate retransmission, no timeout needed.  With
  ``accept_trimmed=False`` a trimmed gradient packet is NACKed the same
  way: NDP's use of trimming, a fast loss signal and a resend.  Accept
  or resend is that one flag in one rule.
* Fully dropped packets (rare: trimmed headers travel in the express
  band) are recovered by the retransmission timer.

:class:`TrimmingReceiver` holds the only copy of that receive rule; the
pull transport's receiver (:mod:`repro.transport.pull`) subclasses it and
changes only how an answer leaves (``_send_control``).  The turnaround is
one pass at each end, because under incast it runs for every data packet.
:meth:`TrimmingReceiver._on_packet` checks the checksum, classifies the
packet (corrupt, trimmed, full), files it and answers it in one handler;
every ACK and NACK is built by :func:`~repro.transport.base.control_packet`.
:meth:`TrimmingSender._handle_control` settles an ACK in one handler:
the ack set, the RTT sample, the packet span's end when a tracer is on,
the congestion signal, then the timer and the next window.  The
retransmission timer is moved on every ACK exactly as before
(``MessageSenderBase._arm_timer``).
"""

from __future__ import annotations

from operator import attrgetter
from types import SimpleNamespace
from typing import Any, Callable, Dict, List, Optional
from zlib import crc32

from ..net.host import Host
from ..obs import trace as _obs_trace
from ..obs.int_telemetry import get_int_collector
from ..obs.metrics import get_registry
from ..packet.packet import Packet
from .base import MessageSenderBase, control_packet

__all__ = ["TrimmingSender", "TrimmingReceiver"]


class TrimmingSender(MessageSenderBase):
    """Selective-repeat sender that treats trims as deliveries."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._acked: set[int] = set()
        self._next = 0
        # |{s in _acked : s < _next}|, kept as both sides move so the
        # window check does not rescan the ack set on every ACK.
        self._acked_below_next = 0
        self._publish_trims()

    def _reset_state(self) -> None:
        self._acked = set()
        self._next = 0
        self._acked_below_next = 0
        self._send_times.clear()

    def _inflight(self) -> int:
        return self._next - self._acked_below_next

    def _pump(self) -> None:
        total = len(self._packets)
        window = self.cc.window
        nxt = self._next
        acked = self._acked
        # Nothing in the loop moves the window: it is read once.
        while nxt < total and nxt - self._acked_below_next < window:
            self._emit(nxt)
            # A stale ACK (of the previous message) may have acked this
            # seq before it was sent; it counts once _next is past it.
            if nxt in acked:
                self._acked_below_next += 1
            nxt += 1
        self._next = nxt
        if len(acked) < total and self._timer is None:
            self._arm_timer()

    def _handle_control(self, packet: Packet) -> None:
        # One pass per ACK: the RTT sample and the packet span's end
        # (_sample_rtt) are spelled out.
        seq = packet.seq
        acked = self._acked
        if packet.nack:
            # NDP-style: trimmed header == instant loss signal for
            # non-gradient payloads; retransmit right away.
            self.cc.on_trim()
            if seq not in acked:
                self._emit(seq, retransmission=True)
            return
        if seq in acked:
            return
        acked.add(seq)
        if seq < self._next:
            self._acked_below_next += 1
        sent = self._send_times.pop(seq, None)
        if sent is not None:
            self.rtt.sample(self.sim.now - sent)
        if self._packet_spans:
            tracer = _obs_trace._TRACER
            if tracer.enabled:
                span = self._packet_spans.pop(seq, None)
                if span is not None:
                    tracer.end(span, t=self.sim.now, acked=True)
        if packet.trimmed_echo:
            self.tally.trims_reported += 1
            self.cc.on_trim()
        else:
            self.cc.on_ack(ecn=packet.ecn)
        if len(acked) >= len(self._packets):
            self._complete()
            return
        self._arm_timer()
        self._pump()

    def _on_timeout(self) -> None:
        # Selective recovery: re-send only what is still unacknowledged.
        for seq in range(min(self._next, len(self._packets))):
            if seq not in self._acked:
                self._emit(seq, retransmission=True)
        self._arm_timer()
        self._pump()


class TrimmingReceiver:
    """Receiver that accepts trimmed gradient packets as deliveries.

    Args:
        host: receiving endpoint.
        flow_id: flow to listen on.
        on_message: called with the (seq-ordered) packet list — trimmed
            packets included as-is, ready for
            :func:`repro.core.packetizer.decode_packets`.
        accept_trimmed: when False a trimmed gradient packet is NACKed and
            resent like any other trimmed packet (NDP's fast loss signal,
            without the paper's no-retransmission rule).
    """

    def __init__(
        self,
        host: Host,
        flow_id: int,
        on_message: Optional[Callable[[List[Packet]], None]] = None,
        accept_trimmed: bool = True,
    ) -> None:
        self.host = host
        self.sim = host.sim
        self.flow_id = flow_id
        self.on_message = on_message
        self.accept_trimmed = accept_trimmed
        self._received: Dict[int, Packet] = {}
        self._total: Optional[int] = None
        self._peer = ""  # the sender, once a data packet has named it
        # What the receiver counted; outlives it until the registry has it.
        self._tally = SimpleNamespace(trimmed_accepted=0, nacks_sent=0, corrupt_rejected=0)
        registry = get_registry()
        registry.publish_tally(self, self._tally, {
            "trimmed_accepted": registry.counter(
                "repro_transport_trimmed_accepted_total", ("transport",)
            ),
            "corrupt_rejected": registry.counter(
                "repro_transport_corrupt_rejected_total", ("transport",)
            ),
            "nacks_sent": registry.counter("repro_transport_nacks_total", ("transport",)),
        }, transport=type(self).__name__)
        host.register_flow(flow_id, self._on_packet)

    trimmed_accepted = property(attrgetter("_tally.trimmed_accepted"))
    nacks_sent = property(attrgetter("_tally.nacks_sent"))
    corrupt_rejected = property(attrgetter("_tally.corrupt_rejected"))

    @property
    def complete(self) -> bool:
        """All sequence numbers covered (full or trimmed)."""
        return self._total is not None and len(self._received) >= self._total

    def packets(self) -> List[Packet]:
        """Received packets in sequence order."""
        return [self._received[seq] for seq in sorted(self._received)]

    def _on_packet(self, packet: Packet) -> None:
        # One pass: checksum, classification, storage and the answer, with
        # Packet.verify / is_trimmed and complete spelled out.
        if packet.is_ack:
            return
        self._peer = packet.src
        self._total = total = packet.seq_total or self._total
        seq = packet.seq
        checksum = packet.checksum
        if checksum is not None and crc32(packet.payload) != checksum:
            # The payload (gradient heads/tails, or worse: the metadata /
            # scale packet every decode depends on) was corrupted in
            # flight.  Decoding garbage would silently poison the round —
            # re-request instead, exactly like an NDP NACK.
            self._tally.corrupt_rejected += 1
            self._send_control(seq, nack=True)
            self._tally.nacks_sent += 1
            return
        received = self._received
        trimmed = packet.trimmed_from is not None
        if trimmed:
            if not (self.accept_trimmed and packet.is_gradient):
                self._send_control(seq, nack=True)
                self._tally.nacks_sent += 1
                return
            if seq not in received:
                self._tally.trimmed_accepted += 1
                received[seq] = packet
                if packet.int_ext is not None:
                    get_int_collector().collect(packet)
        else:
            # A full copy upgrades a previously trimmed one.
            prior = received.get(seq)
            if prior is None or prior.trimmed_from is not None:
                received[seq] = packet
                if packet.int_ext is not None:
                    get_int_collector().collect(packet)
        self._send_control(seq, trimmed_echo=trimmed, ecn=packet.ecn)
        if total is not None and len(received) >= total and self.on_message is not None:
            callback, self.on_message = self.on_message, None
            callback(self.packets())

    def _send_control(
        self, seq: int, nack: bool = False, trimmed_echo: bool = False, ecn: bool = False
    ) -> None:
        """Answer a data packet: how an ACK or NACK leaves this receiver."""
        self.host.send(
            control_packet(self.host.name, self._peer, self.flow_id, seq, nack, False,
                           trimmed_echo, ecn)
        )


TrimmingSender.receiver_class = TrimmingReceiver
