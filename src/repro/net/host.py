"""End hosts (GPU servers in the paper's setting).

A host owns one uplink toward its top-of-rack switch and demultiplexes
arriving packets to transport endpoints by flow id.  The egress queue is
deep (host memory, not switch SRAM), so hosts never trim.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..packet.packet import Packet
from .link import Device, Link
from .queues import PriorityQueue
from .simulator import Simulator

__all__ = ["Host"]

PacketHandler = Callable[[Packet], None]


class Host(Device):
    """A server endpoint.

    Args:
        name: host id (packet ``src``/``dst`` fields refer to these).
        sim: the event loop.
        queue_bytes: egress buffer (deep by default — host DRAM).
    """

    def __init__(self, name: str, sim: Simulator, queue_bytes: int = 10_000_000) -> None:
        super().__init__(name, sim)
        self.queue_bytes = queue_bytes
        self.uplink: Optional[Link] = None
        self._handlers: Dict[int, PacketHandler] = {}
        self._default_handler: Optional[PacketHandler] = None
        # Telemetry.
        self.packets_received = 0
        self.packets_sent = 0

    def make_queue(self) -> PriorityQueue:
        """Host egress queue: same two-band structure, deep data band."""
        return PriorityQueue(band_capacities=[self.queue_bytes, self.queue_bytes])

    def attach(self, neighbor: str, link: Link) -> None:
        """Register the uplink (hosts have exactly one port)."""
        del neighbor
        self.uplink = link

    # -- sending ------------------------------------------------------------

    def send(self, packet: Packet) -> bool:
        """Inject a packet into the network.  False if the NIC queue is full."""
        if self.uplink is None:
            raise RuntimeError(f"host {self.name} is not wired to the network")
        packet.created_at = self.sim.now
        accepted = self.uplink.enqueue(packet)
        if accepted:
            self.packets_sent += 1
        return accepted

    # -- receiving -----------------------------------------------------------

    def register_flow(self, flow_id: int, handler: PacketHandler) -> None:
        """Deliver packets of ``flow_id`` to ``handler``."""
        if flow_id in self._handlers:
            raise ValueError(f"flow {flow_id} already registered on {self.name}")
        self._handlers[flow_id] = handler

    def unregister_flow(self, flow_id: int) -> None:
        """Remove a flow handler (missing ids are ignored)."""
        self._handlers.pop(flow_id, None)

    def set_default_handler(self, handler: PacketHandler) -> None:
        """Catch-all for packets with no registered flow."""
        self._default_handler = handler

    def receive(self, packet: Packet, ingress: Optional[Link] = None) -> None:
        self.packets_received += 1
        handler = self._handlers.get(packet.flow_id, self._default_handler)
        if handler is not None:
            handler(packet)
