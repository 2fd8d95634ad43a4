"""Trimming-aware transport — the paper's data path.

NDP-style selective transport that understands trimmable gradients:

* A **trimmed gradient packet is a delivery**, not a loss.  The receiver
  keeps the decodable head, ACKs it (with ``trimmed_echo`` so the sender
  sees the congestion signal), and the message completes *without any
  retransmission* — the paper's central claim of consistent flow
  completion times with no stragglers.
* A trimmed **non-gradient** packet (the transport also carries opaque
  payloads) acts as an NDP NACK: the header's arrival proves the loss
  and triggers an immediate retransmission, no timeout needed.
* Fully dropped packets (rare: trimmed headers travel in the express
  band) are recovered by the retransmission timer.
"""

from __future__ import annotations

from operator import attrgetter
from types import SimpleNamespace
from typing import Any, Callable, Dict, List, Optional

from ..net.host import Host
from ..obs.int_telemetry import get_int_collector
from ..obs.metrics import get_registry
from ..packet.packet import Packet
from .base import MessageSenderBase

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
        while self._next < total and self._inflight() < self.cc.window:
            self._emit(self._next)
            # A stale ACK (of the previous message) may have acked this
            # seq before it was sent; it counts once _next is past it.
            if self._next in self._acked:
                self._acked_below_next += 1
            self._next += 1
        if len(self._acked) < total and self._timer is None:
            self._arm_timer()

    def _handle_control(self, packet: Packet) -> None:
        if packet.nack:
            # NDP-style: trimmed header == instant loss signal for
            # non-gradient payloads; retransmit right away.
            self.cc.on_trim()
            if packet.seq not in self._acked:
                self._emit(packet.seq, retransmission=True)
            return
        seq = packet.seq
        if seq in self._acked:
            return
        self._acked.add(seq)
        if seq < self._next:
            self._acked_below_next += 1
        self._sample_rtt(seq)
        if packet.trimmed_echo:
            self.tally.trims_reported += 1
            self.cc.on_trim()
        else:
            self.cc.on_ack(ecn=packet.ecn)
        if len(self._acked) >= len(self._packets):
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
        accept_trimmed: when False this degenerates into a selective but
            trim-oblivious transport (useful as an ablation).
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
        self._peer: Optional[str] = None
        # What the receiver counted; outlives it until the registry has it.
        self._tally = SimpleNamespace(trimmed_accepted=0, nacks_sent=0, corrupt_rejected=0)
        transport = type(self).__name__
        registry = get_registry()
        registry.publish_tally(self, self._tally, {
            "trimmed_accepted": registry.counter(
                "repro_transport_trimmed_accepted_total",
                "trimmed gradient packets accepted as deliveries",
                ("transport",),
            ).bind(transport=transport),
            "corrupt_rejected": registry.counter(
                "repro_transport_corrupt_rejected_total",
                "packets failing checksum verification, treated as losses",
                ("transport",),
            ).bind(transport=transport),
            "nacks_sent": registry.counter(
                "repro_transport_nacks_total",
                "NDP-style NACKs sent for unusable trimmed packets",
                ("transport",),
            ).bind(transport=transport),
        })
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
        if packet.is_ack:
            return
        self._peer = packet.src
        self._total = packet.seq_total or self._total
        if not packet.verify():
            # The payload (gradient heads/tails, or worse: the metadata /
            # scale packet every decode depends on) was corrupted in
            # flight.  Decoding garbage would silently poison the round —
            # re-request instead, exactly like an NDP NACK.
            self._tally.corrupt_rejected += 1
            self._send_control(packet.seq, nack=True)
            self._tally.nacks_sent += 1
            return
        if packet.is_trimmed:
            usable = self.accept_trimmed and packet.is_gradient
            if not usable:
                self._send_control(packet.seq, nack=True)
                self._tally.nacks_sent += 1
                return
            if packet.seq not in self._received:
                self._tally.trimmed_accepted += 1
                self._received[packet.seq] = packet
                if packet.int_ext is not None:
                    get_int_collector().collect(packet)
            self._send_control(packet.seq, trimmed_echo=True, ecn=packet.ecn)
        else:
            # A full copy upgrades a previously trimmed one.
            prior = self._received.get(packet.seq)
            if prior is None or prior.is_trimmed:
                self._received[packet.seq] = packet
                if packet.int_ext is not None:
                    get_int_collector().collect(packet)
            self._send_control(packet.seq, ecn=packet.ecn)
        if self.complete and self.on_message is not None:
            callback, self.on_message = self.on_message, None
            callback(self.packets())

    def _send_control(
        self, seq: int, nack: bool = False, trimmed_echo: bool = False, ecn: bool = False
    ) -> None:
        if self._peer is None:
            return
        self.host.send(
            Packet(
                src=self.host.name,
                dst=self._peer,
                is_ack=True,
                nack=nack,
                trimmed_echo=trimmed_echo,
                seq=seq,
                flow_id=self.flow_id,
                priority=2,
                ecn=ecn,
            )
        )


TrimmingSender.receiver_class = TrimmingReceiver
