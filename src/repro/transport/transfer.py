"""One message crossing a simulated network: the carrier every flow rides.

A :class:`Transfer` pairs a sender its caller built (congestion control,
RTO floor and retry budget are the caller's) with the receiver that
sender's class names, on the host the packets are addressed to.  The
gradient carriers (:class:`~repro.train.network_channel.NetworkChannel`
and the cluster wave), the fault harness, T1, the benchmarks and the
examples all put their messages on the wire through it; decoding what
arrived stays with whoever knows what the packets carry.

Two completion times exist per message and they differ by the last
ACK's trip back: :attr:`Transfer.fct_s` ends when the receiver holds
the whole message (what a training round waits for), and the sender's
own ``fct_s`` ends when the ACK that completes it arrives (what T1
reports).
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..net.topology import Network
from ..packet.packet import Packet
from .base import MessageSenderBase

__all__ = ["Transfer"]


class Transfer:
    """One framed message from ``sender`` to the host its packets name.

    The transfer never runs the event loop: the caller :meth:`start`\\ s
    it, runs ``net.sim`` as far as it likes, and :meth:`close`\\ s it.
    """

    def __init__(
        self, net: Network, sender: MessageSenderBase, packets: List[Packet]
    ) -> None:
        self.sender = sender
        self.packets = packets
        self.dst_host = net.hosts[packets[0].dst]
        # Held by the destination host alone: a reference from here
        # would make a cycle (its callback is bound to this transfer)
        # that keeps an undelivered message's packets alive.
        type(sender).receiver_class(self.dst_host, sender.flow_id, self._landed)
        self.start_s = 0.0
        #: Set when the message lands: the event loop usually runs on
        #: past that instant, so the completion time is read here.
        self.done_s = 0.0
        #: The first message the receiver handed over, seq-ordered.
        self.wire: Optional[List[Packet]] = None
        #: How often the receiver handed a message over (1 when delivered).
        self.delivery_calls = 0

    def _landed(self, wire: List[Packet]) -> None:
        self.delivery_calls += 1
        if self.wire is None:
            self.wire = wire
            self.done_s = self.sender.sim.now

    def start(self, on_settled: Optional[Callable[..., None]] = None) -> None:
        """Put the message on the wire.

        ``on_settled`` is the sender's ``on_complete`` and ``on_failure``
        in one: called at the instant the message is delivered (no
        argument) or surrendered (with the ``TransportSurrender``).
        """
        self.start_s = self.sender.sim.now
        self.sender.send_message(
            self.packets, on_complete=on_settled, on_failure=on_settled
        )

    @property
    def fct_s(self) -> float:
        """Send to receiver-side landing, in simulated seconds."""
        return self.done_s - self.start_s

    def close(self) -> None:
        """Tear the flow down at both ends.

        The retransmit timer is silenced and both hosts forget the
        flow, so no event of this message fires later and a kept
        network does not keep its packets alive.
        """
        self.sender.close()
        self.dst_host.unregister_flow(self.sender.flow_id)
