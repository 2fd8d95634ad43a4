"""NDP-style receiver-driven pull transport (Handley et al., SIGCOMM'17).

The transport the paper's trimming story comes from.  Compared to the
window-based :mod:`repro.transport.trimming` stack:

* the sender blasts an **initial window** at line rate — new flows ramp
  up instantly, no slow start ("immediately ramp up new flows' sending
  rate without waiting for connection setup");
* after that, every transmission is paid for by a **PULL** credit from
  the receiver, which paces credits at its own line rate — the receiver,
  not a congestion window, clocks the flow;
* a **trimmed header is a NACK-and-credit in one**: for gradient packets
  the head is kept (no retransmission at all); for opaque payloads the
  sequence number joins the retransmit queue and is resent when the next
  credit arrives;
* a timer backstops complete losses (rare: headers ride the express
  band).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Dict, List, Optional

from ..net.host import Host
from ..obs.int_telemetry import get_int_collector
from ..packet.packet import Packet
from .base import MessageSenderBase

__all__ = ["PullSender", "PullReceiver"]


class PullSender(MessageSenderBase):
    """Sends an initial burst, then one packet per received credit."""

    def __init__(self, *args: Any, initial_window: int = 12, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        if initial_window < 1:
            raise ValueError("initial window must be at least 1 packet")
        self.initial_window = initial_window
        self._next = 0
        self._acked: set[int] = set()
        self._retransmit: deque[int] = deque()
        self.credits_received = 0
        self._publish_trims()

    def _reset_state(self) -> None:
        self._next = 0
        self._acked = set()
        self._retransmit = deque()
        self.credits_received = 0
        self._send_times.clear()

    def _pump(self) -> None:
        # Only the initial burst is unsolicited.
        while self._next < min(self.initial_window, len(self._packets)):
            self._emit(self._next)
            self._next += 1
        if len(self._acked) < len(self._packets) and self._timer is None:
            self._arm_timer()

    def _send_one_more(self) -> None:
        """Spend one credit: retransmissions first, then fresh data."""
        while self._retransmit:
            seq = self._retransmit.popleft()
            if seq not in self._acked:
                self._emit(seq, retransmission=True)
                return
        if self._next < len(self._packets):
            self._emit(self._next)
            self._next += 1

    def _handle_control(self, packet: Packet) -> None:
        if packet.nack and packet.seq not in self._acked:
            self._retransmit.append(packet.seq)
        elif not packet.nack and packet.seq not in self._acked:
            self._acked.add(packet.seq)
            self._sample_rtt(packet.seq)
            if packet.trimmed_echo:
                self.tally.trims_reported += 1
                self.cc.on_trim()
            else:
                self.cc.on_ack(ecn=packet.ecn)
        if packet.pull:
            self.credits_received += 1
            self._send_one_more()
        if len(self._acked) >= len(self._packets):
            self._complete()
            return
        self._arm_timer()

    def _on_timeout(self) -> None:
        # Backstop: resend the oldest unacked packet unsolicited (its
        # arrival regenerates the credit stream).
        for seq in range(min(self._next, len(self._packets))):
            if seq not in self._acked:
                self._emit(seq, retransmission=True)
                break
        self._arm_timer()


class PullReceiver:
    """Accepts trimmed gradients, NACKs trimmed payloads, paces credits.

    Args:
        host: receiving endpoint.
        flow_id: flow to listen on.
        on_message: callback with the seq-ordered packets when complete.
        pace_s: minimum spacing between PULL credits (one full-size
            packet's serialization time at the receiver's line rate —
            NDP's pull pacing; default 120 ns = 1500 B at 100 Gb/s).
        accept_trimmed: treat trimmed gradient packets as deliveries.
    """

    def __init__(
        self,
        host: Host,
        flow_id: int,
        on_message: Optional[Callable[[List[Packet]], None]] = None,
        pace_s: float = 120e-9,
        accept_trimmed: bool = True,
    ) -> None:
        self.host = host
        self.sim = host.sim
        self.flow_id = flow_id
        self.on_message = on_message
        self.pace_s = pace_s
        self.accept_trimmed = accept_trimmed
        self._received: Dict[int, Packet] = {}
        self._total: Optional[int] = None
        self._peer: Optional[str] = None
        self._credit_queue: deque[Packet] = deque()
        self._pacer_busy = False
        self.trimmed_accepted = 0
        self.nacks_sent = 0
        self.pulls_sent = 0
        self.corrupt_rejected = 0
        host.register_flow(flow_id, self._on_packet)

    @property
    def complete(self) -> bool:
        return self._total is not None and len(self._received) >= self._total

    def packets(self) -> List[Packet]:
        return [self._received[seq] for seq in sorted(self._received)]

    # -- data path ---------------------------------------------------------

    def _on_packet(self, packet: Packet) -> None:
        if packet.is_ack:
            return
        self._peer = packet.src
        self._total = packet.seq_total or self._total
        control = Packet(
            src=self.host.name,
            dst=self._peer,
            is_ack=True,
            pull=True,
            seq=packet.seq,
            flow_id=self.flow_id,
            priority=2,
            ecn=packet.ecn,
        )
        if not packet.verify():
            # Corrupted in flight: the NACK doubles as the credit that
            # pays for the retransmission (NDP-style re-request).
            self.corrupt_rejected += 1
            control.nack = True
            self.nacks_sent += 1
        elif packet.is_trimmed:
            usable = self.accept_trimmed and packet.is_gradient
            if usable:
                if packet.seq not in self._received:
                    self.trimmed_accepted += 1
                    self._received[packet.seq] = packet
                    if packet.int_ext is not None:
                        get_int_collector().collect(packet)
                control.trimmed_echo = True
            else:
                control.nack = True
                self.nacks_sent += 1
        else:
            prior = self._received.get(packet.seq)
            if prior is None or prior.is_trimmed:
                self._received[packet.seq] = packet
                if packet.int_ext is not None:
                    get_int_collector().collect(packet)
        self._enqueue_credit(control)
        if self.complete and self.on_message is not None:
            callback, self.on_message = self.on_message, None
            callback(self.packets())

    # -- credit pacing -------------------------------------------------------

    def _enqueue_credit(self, control: Packet) -> None:
        self._credit_queue.append(control)
        if not self._pacer_busy:
            self._pacer_busy = True
            self.sim.schedule(0.0, self._drain_one)

    def _drain_one(self) -> None:
        if not self._credit_queue:
            self._pacer_busy = False
            return
        control = self._credit_queue.popleft()
        self.host.send(control)
        self.pulls_sent += 1
        self.sim.schedule(self.pace_s, self._drain_one)


PullSender.receiver_class = PullReceiver
