"""The push-then-kick injection the one admission rule is held to.

``push_then_kick`` is how a packet entered an egress queue before
``PriorityQueue.admit`` and ``Link._start`` took it over: the old
``ByteQueue.push`` into the packet's band (capacity, ECN mark, counters,
peak), then a kick of the serializer, which pops the packet straight
back out when it was idle.  Of the code under test it uses only
``band_for`` and the serializer's own refill, ``Link._try_transmit``.
"""


def push_then_kick(link, packet):
    """Store ``packet`` in its band and kick ``link``; False on overflow."""
    queue = link.queue
    band = queue.bands[queue.band_for(packet)]
    new_bytes = band.bytes_queued + packet.wire_size
    if new_bytes > band.capacity_bytes:
        band.rejected += 1
        return False
    threshold = band.ecn_threshold_bytes
    if threshold is not None and new_bytes > threshold:
        packet.ecn = True
        band.ecn_marked += 1
    band._items.append(packet)
    band._bytes = new_bytes
    band.enqueued += 1
    band.peak_bytes = max(band.peak_bytes, new_bytes)
    link._try_transmit()
    return True
