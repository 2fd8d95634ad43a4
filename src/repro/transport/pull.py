"""NDP-style receiver-driven pull transport (Handley et al., SIGCOMM'17).

The transport the paper's trimming story comes from.  Compared to the
window-based :mod:`repro.transport.trimming` stack, only the clock of the
flow changes:

* the sender blasts an **initial window** at line rate — new flows ramp
  up instantly, no slow start ("immediately ramp up new flows' sending
  rate without waiting for connection setup");
* after that, every transmission is paid for by a **PULL** credit from
  the receiver, which sends one credit per :data:`PACE_S` — the receiver,
  not a congestion window, clocks the flow;
* the receiver is :class:`~repro.transport.trimming.TrimmingReceiver`'s
  one receive rule (a trimmed gradient packet is a delivery; a corrupt
  packet, or a trimmed one that cannot be used, is NACKed) with ``pull``
  on every ACK and NACK, so a **trimmed header is a NACK-and-credit in
  one**: its sequence number joins the retransmit queue and is resent
  when the next credit arrives;
* a timer backstops complete losses (rare: headers ride the express
  band).
"""

from __future__ import annotations

from collections import deque
from typing import Any

from ..packet.packet import Packet
from .base import MessageSenderBase, control_packet
from .trimming import TrimmingReceiver

__all__ = ["PullSender", "PullReceiver", "PACE_S"]

#: Spacing between PULL credits: one 1,500-byte packet's serialization at
#: 100 Gb/s (NDP's pull pacing).  Every fabric that runs pull today (the
#: fault presets' 10 Gb/s edges, examples/shared_fabric.py) needs 1.2 us a
#: packet, so the pacer credits at 10x their line rate.  Pacing at their
#: line rate kept drops and retransmissions on all 11 fault presets at
#: seed 7, moved no flow's completion time by more than 1.1 us (0.5 %) and
#: removed events on 10 of them; the pull log digests pin this value.
PACE_S = 120e-9


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


class PullReceiver(TrimmingReceiver):
    """The trimming receiver whose every ACK and NACK is also a PULL credit.

    :class:`~repro.transport.trimming.TrimmingReceiver` decides how each
    data packet is answered; here the answer carries ``pull`` and waits in
    a credit queue that leaves one control packet per :data:`PACE_S`.
    """

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._credit_queue: deque[Packet] = deque()
        self._pacer_busy = False
        self.pulls_sent = 0

    def _send_control(
        self, seq: int, nack: bool = False, trimmed_echo: bool = False, ecn: bool = False
    ) -> None:
        self._credit_queue.append(
            control_packet(self.host.name, self._peer, self.flow_id, seq, nack, True,
                           trimmed_echo, ecn)
        )
        if not self._pacer_busy:
            self._pacer_busy = True
            self.sim.schedule(0.0, self._drain_one)

    def _drain_one(self) -> None:
        if not self._credit_queue:
            self._pacer_busy = False
            return
        self.host.send(self._credit_queue.popleft())
        self.pulls_sent += 1
        self.sim.schedule(PACE_S, self._drain_one)


PullSender.receiver_class = PullReceiver
