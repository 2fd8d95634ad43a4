"""Byte-bounded queues for switch and NIC egress ports.

* :class:`ByteQueue` — one band: a FIFO bounded in bytes, with an
  optional ECN marking threshold (mark-on-enqueue above the threshold,
  DCTCP-style) and its counters.
* :class:`PriorityQueue` — strict-priority bands built from ByteQueues.
  Trimmed headers travel in the high band, bypassing payload packets,
  exactly the express-lane treatment NDP/EODS give them.

:meth:`PriorityQueue.admit` is the one admission rule (band, capacity,
ECN, counters, and the pass-through to an idle serializer) and
:meth:`PriorityQueue.pop` the one service rule; switches and hosts both
go through them, and nothing outside this module touches a band's
packets or counters.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from ..packet.packet import Packet

__all__ = ["ByteQueue", "PriorityQueue"]


class ByteQueue:
    """One band: a FIFO bounded by total bytes, with optional ECN marking.

    Filled and drained by its :class:`PriorityQueue` alone.

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

    def admit(self, packet: Packet, idle: bool) -> bool:
        """Admit ``packet`` to its band: the one admission rule.

        Picks the band, checks its capacity (an overflow counts a
        rejection and returns False, leaving the verdict to the caller),
        marks ECN above the band's threshold and counts the enqueue and
        the peak.  With ``idle`` the caller hands the packet to an idle
        serializer, whose queue is empty: it is counted as dequeued at
        once and never stored.  Otherwise it joins the band's tail.
        """
        last = self._last_band
        priority = packet.priority
        band = self.bands[last - (priority if priority < last else last)]
        new_bytes = band._bytes + packet.wire_size
        if new_bytes > band.capacity_bytes:
            band.rejected += 1
            return False
        threshold = band.ecn_threshold_bytes
        if threshold is not None and new_bytes > threshold:
            packet.ecn = True
            band.ecn_marked += 1
        band.enqueued += 1
        if new_bytes > band.peak_bytes:
            band.peak_bytes = new_bytes
        if idle:
            band.dequeued += 1
        else:
            band._items.append(packet)
            band._bytes = new_bytes
        return True

    def pop(self) -> Optional[Packet]:
        """Dequeue from the highest-priority non-empty band."""
        for band in self.bands:
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
