"""The on-the-wire packet object used throughout the simulator.

A :class:`Packet` models one datagram: addressing, the 42-byte standard
wire header (sized but not serialized — the simulator does not route real
Ethernet frames) and a payload.  Gradient traffic carries its 32-byte
:class:`~repro.packet.header.GradientHeader` as the payload's first bytes
and nowhere else: the accessors below (``is_gradient``,
``trimmable_bytes``, ``is_metadata``, ``message_id``) read the fields they
need from those bytes, so what a switch acts on is what is on the wire.
``wire_size`` is what queues and links account for; ``cut()`` produces
the trimmed twin the switch forwards instead of dropping, for every codec
one rule over the plane widths of its code.
"""

from __future__ import annotations

import itertools
import zlib
from dataclasses import dataclass, field
from typing import Optional, Tuple

from ..obs.int_telemetry import INTExtension
from .header import (
    FLAG_METADATA,
    FLAG_TRIMMED,
    FLAGS_AT,
    GRADIENT_HEADER_BYTES,
    HEAD_BITS_AT,
    MAGIC,
    PACKET_VIEW,
    SPLIT_VIEW,
    WIRE_HEADER_BYTES,
    GradientHeader,
    code_planes,
)

__all__ = ["Packet", "DEFAULT_MTU_BYTES"]

DEFAULT_MTU_BYTES = 1500

_packet_ids = itertools.count()
_read_view = PACKET_VIEW.unpack_from
_MAGIC_FIRST_BYTE = MAGIC >> 8


@dataclass(slots=True)
class Packet:
    """One datagram in flight.

    Attributes:
        src: source host name.
        dst: destination host name.
        payload: application payload; gradient traffic starts it with the
            32-byte gradient header.  Either owned ``bytes`` or a
            read-only ``memoryview`` into a shared message buffer — the
            packetizer emits zero-copy views; :meth:`trim` always
            produces owned bytes (see docs/performance.md for the
            ownership invariants).
        priority: queueing priority; 0 = normal, higher = more urgent
            (trimmed headers travel at priority 1, like NDP).
        flow_id: transport flow this packet belongs to.
        seq: transport sequence number.
        seq_total: number of packets in this transport message (0 when
            the packet is not part of a framed message).
        is_ack: transport-level ACK/NACK/pull control packet.
        nack: for control packets, True marks a negative acknowledgement
            (NDP-style: the receiver saw a trimmed/lost packet it needs
            retransmitted).
        pull: for control packets, True grants the sender one more
            transmission credit (NDP's receiver-driven pacing).
        trimmed_echo: for ACKs, True tells the sender the acknowledged
            packet arrived trimmed (congestion feedback + stats).
        ecn: ECN-CE mark applied by a congested switch (echoed back on
            ACKs for DCTCP-style control).
        created_at: simulator time the packet entered the network.
        packet_id: unique id (for traces and trim transcripts).
        trimmed_from: original wire size if this packet was trimmed.
        checksum: CRC32 of ``payload`` at :meth:`seal` time, or None when
            the sender did not seal the packet.  Receivers call
            :meth:`verify` to detect in-flight payload corruption; an
            unsealed packet always verifies (no checksum, no detection).
        int_ext: in-band telemetry band, if the packetizer attached one.
            Deliberately *outside* the payload and the checksum: switches
            stamp hop records after the sender seals (mutating sealed
            payload bytes would read as corruption), exactly why real INT
            shims sit outside the L4 checksum.  Its fixed wire cost is
            still charged to ``wire_size`` so queues and links account
            for it, and like the gradient header it is never trimmed.
    """

    src: str
    dst: str
    payload: "bytes | memoryview" = b""
    priority: int = 0
    flow_id: int = 0
    seq: int = 0
    seq_total: int = 0
    is_ack: bool = False
    nack: bool = False
    pull: bool = False
    trimmed_echo: bool = False
    ecn: bool = False
    created_at: float = 0.0
    packet_id: int = field(default_factory=_packet_ids.__next__)
    trimmed_from: Optional[int] = None
    checksum: Optional[int] = None
    int_ext: Optional[INTExtension] = None
    #: Total bytes this packet occupies on a link / in a queue.  Cached
    #: at construction (queues and links read it several times per hop);
    #: the payload and INT band are fixed-size once built (everything
    #: that changes a payload — trim, corruption — builds a new packet),
    #: so the cache never goes stale.
    wire_size: int = field(init=False, compare=False, repr=False, default=0)

    def __post_init__(self) -> None:
        size = WIRE_HEADER_BYTES + len(self.payload)
        if self.int_ext is not None:
            size += self.int_ext.wire_bytes
        self.wire_size = size

    @property
    def is_trimmed(self) -> bool:
        """True when a switch trimmed this packet."""
        return self.trimmed_from is not None

    def _header_view(self) -> Optional[tuple[int, ...]]:
        """:data:`~repro.packet.header.PACKET_VIEW` of the payload's header
        bytes, or None when the payload does not start with a header."""
        payload = self.payload
        # The magic's first byte turns other traffic away before any parse.
        if len(payload) < GRADIENT_HEADER_BYTES or payload[0] != _MAGIC_FIRST_BYTE:
            return None
        view = _read_view(payload)
        return view if view[0] == MAGIC else None

    @property
    def grad_header(self) -> Optional[GradientHeader]:
        """The gradient header parsed from the payload, or None.

        Parsed afresh on every read, for tests and cold paths; per-packet
        code reads the one or two fields it needs through the accessors
        below instead.
        """
        if self._header_view() is None:
            return None
        return GradientHeader.from_bytes(self.payload)

    @property
    def is_gradient(self) -> bool:
        """True for gradient packets (payload starts with a gradient header)."""
        return not self.is_ack and self._header_view() is not None

    @property
    def is_metadata(self) -> bool:
        """True for a gradient message's metadata packet (never trimmed)."""
        view = self._header_view()
        return view is not None and bool(view[1] & FLAG_METADATA)

    @property
    def message_id(self) -> Optional[int]:
        """The gradient header's message id, or None for other traffic."""
        view = self._header_view()
        return None if view is None else view[5]

    def trimmable_bytes(self, bits: int = 0) -> Optional[int]:
        """Payload bytes :meth:`cut` to ``bits`` keeps, or None when it drops.

        For gradient packets this is the gradient header plus the packed
        planes above the cut (for a two-plane code: the heads,
        ``ceil(P*n/8)`` bytes); anything else is not trimmable and must be
        dropped instead when the buffer is full.
        """
        at = self._cut_at(bits)
        return None if at is None else at[0]

    def _cut_at(self, bits: int) -> Optional[Tuple[int, int]]:
        """``(payload bytes kept, bits per coordinate kept)`` of :meth:`cut`."""
        # _header_view() spelled out: every switch overflow asks this.
        payload = self.payload
        if self.is_ack or len(payload) < GRADIENT_HEADER_BYTES:
            return None
        if payload[0] != _MAGIC_FIRST_BYTE:
            return None
        magic, flags, codec_id, head_bits, tail_bits, _, coord_count = _read_view(payload)
        if magic != MAGIC or flags & FLAG_METADATA:
            return None
        carried = head_bits if flags & FLAG_TRIMMED else head_bits + tail_bits
        # The first plane boundary below what the packet carries, then each
        # deeper one up to ``bits``.
        depth = keep = 0
        for width in code_planes(codec_id, head_bits, tail_bits):
            deeper = depth + width
            if deeper >= carried or (depth and deeper > bits):
                break
            depth = deeper
            keep -= -width * coord_count // 8
        keep += GRADIENT_HEADER_BYTES
        if not depth or keep >= len(payload):
            return None  # nothing to cut
        return keep, depth

    def seal(self) -> "Packet":
        """Stamp ``checksum`` with the CRC32 of the current payload.

        Returns self so senders can seal in-line while framing.
        """
        self.checksum = zlib.crc32(self.payload)
        return self

    def verify(self) -> bool:
        """True when the payload matches its checksum (or was never sealed)."""
        return self.checksum is None or zlib.crc32(self.payload) == self.checksum

    def trim(self, bits: int = 0) -> "Packet":
        """:meth:`cut`, for a packet that must be trimmable (the original
        is untouched).

        Raises ``ValueError`` when the packet is not trimmable.
        """
        remnant = self.cut(bits)
        if remnant is None:
            raise ValueError(f"packet {self.packet_id} is not trimmable")
        return remnant

    def cut(self, bits: int = 0) -> Optional["Packet"]:
        """The remnant of this packet cut to ``bits`` bits per coordinate,
        or None when it cannot shrink (drop it instead).

        The cut lands on the deepest plane boundary of the packet's code
        (:data:`~repro.packet.header.CODE_PLANES`) that is at most ``bits``
        and below what the packet carries; when there is none, on the
        shallowest boundary below it.  ``bits=0`` is the head-only cut.
        A sealed packet is re-sealed over the remnant payload — trimming
        switches recompute the frame check sequence, exactly as real
        store-and-forward ASICs do when they rewrite a frame.
        """
        at = self._cut_at(bits)
        if at is None:
            return None
        keep, depth = at
        # The remnant is the header with TRIMMED OR-ed into its flags byte
        # (and its depth in the head bits when the cut is below the first
        # boundary) joined to the kept planes: one copy of the body, and
        # the trimmed twin always owns its (small) payload, whatever buffer
        # the original's was a view of.
        payload = self.payload
        header = bytearray(payload[:GRADIENT_HEADER_BYTES])
        header[FLAGS_AT] |= FLAG_TRIMMED
        if header[HEAD_BITS_AT] != depth:
            head_bits, tail_bits = SPLIT_VIEW.unpack_from(header, HEAD_BITS_AT)
            SPLIT_VIEW.pack_into(header, HEAD_BITS_AT, depth, head_bits + tail_bits - depth)
        new_payload = b"".join((header, payload[GRADIENT_HEADER_BYTES:keep]))
        return self._twin(
            new_payload,
            max(self.priority, 1),
            self.packet_id,
            self.wire_size,
            None if self.checksum is None else zlib.crc32(new_payload),
            self.int_ext,
        )

    def clone(self) -> "Packet":
        """Copy with a fresh packet id (for retransmission accounting).

        A retransmitted clone gets a *fresh* (empty) INT band: its hop
        records describe the clone's own journey, not the lost
        original's.
        """
        return self._twin(
            self.payload,
            self.priority,
            next(_packet_ids),
            self.trimmed_from,
            self.checksum,
            None if self.int_ext is None else self.int_ext.fresh(),
        )

    def _twin(
        self,
        payload: "bytes | memoryview",
        priority: int,
        packet_id: int,
        trimmed_from: Optional[int],
        checksum: Optional[int],
        int_ext: Optional[INTExtension],
    ) -> "Packet":
        """Copy of this packet with the fields ``cut`` / ``clone`` change.

        Spelled out rather than ``dataclasses.replace()``, and by position
        (keyword construction is dearer): the switch trims every other
        gradient packet under congestion.  ``test_packet.py`` compares
        both copies with the ``replace``-based ones over ``fields(Packet)``,
        so a field added or reordered later cannot be missed here.
        """
        return Packet(
            self.src,
            self.dst,
            payload,
            priority,
            self.flow_id,
            self.seq,
            self.seq_total,
            self.is_ack,
            self.nack,
            self.pull,
            self.trimmed_echo,
            self.ecn,
            self.created_at,
            packet_id,
            trimmed_from,
            checksum,
            int_ext,
        )
