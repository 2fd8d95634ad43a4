"""Byte-bounded queues for switch and NIC egress ports.

Two flavours:

* :class:`ByteQueue` — a FIFO bounded in bytes, with an optional ECN
  marking threshold (mark-on-enqueue above the threshold, DCTCP-style).
* :class:`PriorityQueue` — strict-priority bands built from ByteQueues.
  Trimmed headers travel in the high band, bypassing payload packets,
  exactly the express-lane treatment NDP/EODS give them.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from ..packet.packet import Packet

__all__ = ["ByteQueue", "PriorityQueue"]


class ByteQueue:
    """FIFO bounded by total bytes, with optional ECN marking.

    Attributes:
        capacity_bytes: maximum total wire bytes held (the *shallow
            buffer* of the paper's switches).
        ecn_threshold_bytes: mark packets CE when the post-enqueue depth
            exceeds this many bytes (None disables marking).
    """

    def __init__(
        self, capacity_bytes: int, ecn_threshold_bytes: Optional[int] = None
    ) -> None:
        if capacity_bytes <= 0:
            raise ValueError(f"capacity must be positive, got {capacity_bytes}")
        self.capacity_bytes = capacity_bytes
        self.ecn_threshold_bytes = ecn_threshold_bytes
        self._items: deque[Packet] = deque()
        self._bytes = 0
        # Telemetry.
        self.enqueued = 0
        self.dequeued = 0
        self.rejected = 0
        self.ecn_marked = 0
        self.peak_bytes = 0

    def __len__(self) -> int:
        return len(self._items)

    @property
    def bytes_queued(self) -> int:
        """Current occupancy in wire bytes."""
        return self._bytes

    @property
    def fill(self) -> float:
        """Occupancy as a fraction of capacity, in [0, 1]."""
        return self._bytes / self.capacity_bytes

    def push(self, packet: Packet) -> bool:
        """Enqueue; returns False (and counts a rejection) on overflow."""
        new_bytes = self._bytes + packet.wire_size
        if new_bytes > self.capacity_bytes:
            self.rejected += 1
            return False
        threshold = self.ecn_threshold_bytes
        if threshold is not None and new_bytes > threshold:
            packet.ecn = True
            self.ecn_marked += 1
        self._items.append(packet)
        self._bytes = new_bytes
        self.enqueued += 1
        if new_bytes > self.peak_bytes:
            self.peak_bytes = new_bytes
        return True

    def pop(self) -> Optional[Packet]:
        """Dequeue the head packet, or None when empty."""
        if not self._items:
            return None
        packet = self._items.popleft()
        self._bytes -= packet.wire_size
        self.dequeued += 1
        return packet


class PriorityQueue:
    """Strict-priority scheduler over per-band ByteQueues.

    Band 0 is served first (highest priority).  A packet's band is
    ``num_bands - 1 - min(packet.priority, num_bands - 1)`` so that
    higher ``Packet.priority`` means earlier service.
    """

    def __init__(
        self,
        band_capacities: list[int],
        ecn_threshold_bytes: Optional[int] = None,
    ) -> None:
        if not band_capacities:
            raise ValueError("need at least one band")
        # ECN marking only makes sense on the normal (lowest) band: the
        # high band holds tiny trimmed headers and control packets.
        self.bands = [
            ByteQueue(
                cap,
                ecn_threshold_bytes if i == len(band_capacities) - 1 else None,
            )
            for i, cap in enumerate(band_capacities)
        ]
        # The band list is fixed for the queue's lifetime; the per-push
        # index arithmetic reads this instead of len(bands) - 1.
        self._last_band = len(self.bands) - 1

    def band_for(self, packet: Packet) -> int:
        """Band index (0 = served first) for this packet's priority."""
        last = self._last_band
        clamped = min(packet.priority, last)
        return last - clamped

    def push(self, packet: Packet) -> bool:
        """Enqueue into the packet's band; False on that band's overflow."""
        last = self._last_band
        priority = packet.priority
        return self.bands[last - (priority if priority < last else last)].push(packet)

    def pop(self) -> Optional[Packet]:
        """Dequeue from the highest-priority non-empty band."""
        for band in self.bands:
            # Inlined ByteQueue.pop: this runs once per serialized
            # packet and the empty-band probe is the common case.
            items = band._items
            if items:
                packet = items.popleft()
                band._bytes -= packet.wire_size
                band.dequeued += 1
                return packet
        return None

    def __len__(self) -> int:
        return sum(len(b) for b in self.bands)

    @property
    def bytes_queued(self) -> int:
        """Total occupancy across bands."""
        return sum(b.bytes_queued for b in self.bands)

    def data_band(self) -> ByteQueue:
        """The lowest-priority band, where full-size data packets wait."""
        return self.bands[-1]
