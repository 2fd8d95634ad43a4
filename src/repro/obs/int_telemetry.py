"""In-band network telemetry (INT) for the trim pipeline.

Real INT deployments have switches stamp a small per-hop record into a
dedicated metadata band of each packet as it flies by; the receiver
strips the stack and feeds it to a collector.  This module is that data
plane for the simulator, and the congestion signal the ROADMAP's
adaptive-compression controller will eventually consume:

* :class:`INTHopRecord` / :class:`INTExtension` — a **versioned,
  fixed-size** telemetry band riding on :class:`~repro.packet.packet.Packet`.
  Like the gradient header, the band is *protected metadata*: switches
  never trim it, and it is excluded from the payload checksum
  (``seal()``/``verify()``) because switches legitimately mutate it
  after the sender seals — exactly why real INT shims live outside the
  L4 checksum.
* per-hop stamping — :class:`~repro.net.switch.Switch` records a
  forward/trim/drop decision with the egress queue depth and occupancy;
  :class:`~repro.net.link.Link` records probabilistic in-flight trims.
* :class:`INTCollector` — the receiver-side sink that turns delivered
  records into per-(job, layer, hop) congestion series, optionally
  streamed to JSONL (sorted keys, simulation time only, so two
  same-seed runs produce byte-identical files).

Everything is **off by default**: packets carry no extension until
:func:`enable_int` is called, and every stamping site guards on
``packet.int_ext is not None`` — one attribute check on the disabled
path.
"""

from __future__ import annotations

import json
import re
import struct
from dataclasses import dataclass
from typing import IO, TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from .metrics import get_registry

if TYPE_CHECKING:  # pragma: no cover - typing only; avoids a packet cycle
    from ..packet.packet import Packet

__all__ = [
    "INT_VERSION",
    "INT_HEADER_BYTES",
    "INT_RECORD_BYTES",
    "DEFAULT_INT_CAPACITY",
    "DECISION_FORWARD",
    "DECISION_TRIM",
    "DECISION_DROP",
    "REASON_NONE",
    "REASON_BUFFER_OVERFLOW",
    "REASON_HEADER_BAND_OVERFLOW",
    "REASON_NO_ROUTE",
    "REASON_PORT_BLACKOUT",
    "REASON_LINK_IMPAIRMENT",
    "REASON_BLACKHOLE",
    "REASON_SWITCH_DOWN",
    "REASON_GRAY_LOSS",
    "AUX_PATH_CHANGED",
    "decision_name",
    "reason_name",
    "INTHopRecord",
    "INTExtension",
    "INTCollector",
    "enable_int",
    "disable_int",
    "int_capacity",
    "hop_id",
    "hop_name",
    "restart_hop_ids",
    "is_reserved_hop_name",
    "get_int_collector",
    "set_int_collector",
]

INT_VERSION = 1

#: Per-packet record slots pre-allocated in the band.  Like real INT's
#: max-hop-count, the band's wire size is fixed up front so stamping a
#: hop never changes the packet's size mid-flight.
DEFAULT_INT_CAPACITY = 8

#: Band header: version, capacity, count, flags (bit 0: overflowed).
_EXT_HEADER = struct.Struct(">BBBB")
INT_HEADER_BYTES = _EXT_HEADER.size

#: One hop record: hop id, decision, reason, modeled timestamp, egress
#: queue depth in bytes, data-band occupancy in permille, aux (the trim
#: level for multi-level trims).
_RECORD = struct.Struct(">HBBdIHH")
INT_RECORD_BYTES = _RECORD.size

_EXT_FLAG_OVERFLOWED = 0x01

DECISION_FORWARD = 0
DECISION_TRIM = 1
DECISION_DROP = 2

_DECISION_NAMES = {
    DECISION_FORWARD: "forward",
    DECISION_TRIM: "trim",
    DECISION_DROP: "drop",
}

REASON_NONE = 0
REASON_BUFFER_OVERFLOW = 1
REASON_HEADER_BAND_OVERFLOW = 2
REASON_NO_ROUTE = 3
REASON_PORT_BLACKOUT = 4
REASON_LINK_IMPAIRMENT = 5
REASON_BLACKHOLE = 6
REASON_SWITCH_DOWN = 7
REASON_GRAY_LOSS = 8

#: High bit of the ``aux`` field on a forward record: this flow was
#: rerouted onto a different ECMP leg after a port failure, and this is
#: its first stamped packet on the new path.  The low bits keep their
#: usual meaning (path index + 1), so a failover reads as
#: ``aux = AUX_PATH_CHANGED | new_leg``.
AUX_PATH_CHANGED = 0x8000

_REASON_NAMES = {
    REASON_NONE: "none",
    REASON_BUFFER_OVERFLOW: "buffer-overflow",
    REASON_HEADER_BAND_OVERFLOW: "header-band-overflow",
    REASON_NO_ROUTE: "no-route",
    REASON_PORT_BLACKOUT: "port-blackout",
    REASON_LINK_IMPAIRMENT: "link-impairment",
    REASON_BLACKHOLE: "blackhole",
    REASON_SWITCH_DOWN: "switch-down",
    REASON_GRAY_LOSS: "gray-loss",
}


def decision_name(decision: int) -> str:
    """Human-readable name for a decision code."""
    return _DECISION_NAMES.get(decision, f"decision-{decision}")


def reason_name(reason: int) -> str:
    """Human-readable name for a reason code."""
    return _REASON_NAMES.get(reason, f"reason-{reason}")


# -- hop registry -------------------------------------------------------------
#
# INT records carry a 16-bit hop id, not a name.  Devices intern their
# name once at construction, and every Network starts the numbering
# afresh (restart_hop_ids): because topologies are built in a fixed order,
# a given (scenario, seed) yields the same ids whatever the process built
# before it.  Records resolve against the most recently built network.

_HOP_IDS: Dict[str, int] = {}
_HOP_NAMES: List[str] = []


def restart_hop_ids() -> None:
    """Forget every interned name: the next :func:`hop_id` returns 0."""
    _HOP_IDS.clear()
    _HOP_NAMES.clear()


def hop_id(name: str) -> int:
    """Intern ``name`` and return its stable small-integer hop id."""
    hid = _HOP_IDS.get(name)
    if hid is None:
        hid = len(_HOP_NAMES)
        if hid > 0xFFFF:
            raise OverflowError("hop registry exhausted the 16-bit id space")
        _HOP_IDS[name] = hid
        _HOP_NAMES.append(name)
    return hid


def hop_name(hid: int) -> str:
    """Reverse lookup; unknown ids render as ``hop<id>``."""
    if 0 <= hid < len(_HOP_NAMES):
        return _HOP_NAMES[hid]
    return f"hop{hid}"


#: Names the registry itself generates: link labels ("a->b", interned by
#: every Link) and the ``hop<N>`` fallback rendering for unknown ids.
_FALLBACK_HOP_RE = re.compile(r"hop\d+")


def is_reserved_hop_name(name: str) -> bool:
    """True when ``name`` would collide with a registry-generated id.

    Links intern their ``"src->dst"`` label and :func:`hop_name` renders
    unknown ids as ``hop<N>``, so a *device* with either shape of name
    would alias an existing (or future) registry entry and corrupt the
    telemetry attribution.  :meth:`repro.net.topology.Network.add_host`
    and ``add_switch`` reject such names up front.
    """
    return "->" in name or _FALLBACK_HOP_RE.fullmatch(name) is not None


# -- wire format --------------------------------------------------------------


@dataclass(frozen=True)
class INTHopRecord:
    """One hop's stamp: where, when, what happened, how congested."""

    hop: int
    decision: int
    reason: int
    sim_time: float
    queue_depth_bytes: int
    fill_permille: int
    aux: int = 0

    def to_bytes(self) -> bytes:
        """Serialize (big-endian, :data:`INT_RECORD_BYTES` bytes)."""
        return _RECORD.pack(
            self.hop,
            self.decision,
            self.reason,
            self.sim_time,
            self.queue_depth_bytes,
            self.fill_permille,
            self.aux,
        )

    @classmethod
    def from_bytes(cls, data: "bytes | memoryview") -> "INTHopRecord":
        """Parse one record."""
        hop, decision, reason, sim_time, depth, fill, aux = _RECORD.unpack_from(data)
        return cls(
            hop=hop,
            decision=decision,
            reason=reason,
            sim_time=sim_time,
            queue_depth_bytes=depth,
            fill_permille=fill,
            aux=aux,
        )


class INTExtension:
    """The fixed-size INT band carried by one packet.

    ``capacity`` record slots are pre-allocated; :meth:`stamp` fills
    them in hop order, and a stamp past capacity sets the overflow flag
    instead of growing the band (the wire size never changes in
    flight).  The band survives trimming untouched and is excluded from
    the payload checksum — see the module docstring.
    """

    __slots__ = ("version", "capacity", "records", "overflowed")

    def __init__(
        self,
        capacity: int = DEFAULT_INT_CAPACITY,
        version: int = INT_VERSION,
        records: Optional[List[INTHopRecord]] = None,
        overflowed: bool = False,
    ) -> None:
        if not 1 <= capacity <= 255:
            raise ValueError(f"capacity must be in [1, 255], got {capacity}")
        self.version = version
        self.capacity = capacity
        self.records: List[INTHopRecord] = list(records) if records else []
        self.overflowed = overflowed

    @property
    def wire_bytes(self) -> int:
        """Bytes this band occupies on the wire (fixed per capacity)."""
        return INT_HEADER_BYTES + self.capacity * INT_RECORD_BYTES

    def stamp(
        self,
        hop: int,
        decision: int,
        reason: int,
        sim_time: float,
        queue_depth_bytes: int = 0,
        fill_permille: int = 0,
        aux: int = 0,
    ) -> bool:
        """Append one hop record; False (and the overflow flag) when full."""
        if len(self.records) >= self.capacity:
            self.overflowed = True
            return False
        self.records.append(
            INTHopRecord(
                hop=hop,
                decision=decision,
                reason=reason,
                sim_time=sim_time,
                queue_depth_bytes=queue_depth_bytes,
                fill_permille=min(fill_permille, 0xFFFF),
                aux=aux,
            )
        )
        return True

    def fresh(self) -> "INTExtension":
        """Empty band with the same geometry — retransmitted clones get
        their own journey's records, not a copy of the lost one's."""
        return INTExtension(capacity=self.capacity, version=self.version)

    def to_bytes(self) -> bytes:
        """Serialize: header + every slot (unused slots zero-filled)."""
        flags = _EXT_FLAG_OVERFLOWED if self.overflowed else 0
        parts = [_EXT_HEADER.pack(self.version, self.capacity, len(self.records), flags)]
        parts.extend(record.to_bytes() for record in self.records)
        pad = self.capacity - len(self.records)
        if pad:
            parts.append(b"\x00" * (pad * INT_RECORD_BYTES))
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, data: "bytes | memoryview") -> "INTExtension":
        """Parse a serialized band; raises ``ValueError`` on bad input."""
        if len(data) < INT_HEADER_BYTES:
            raise ValueError(f"INT band needs {INT_HEADER_BYTES}+ bytes, got {len(data)}")
        version, capacity, count, flags = _EXT_HEADER.unpack_from(data)
        if version != INT_VERSION:
            raise ValueError(f"unsupported INT version {version}")
        if count > capacity:
            raise ValueError(f"count {count} exceeds capacity {capacity}")
        need = INT_HEADER_BYTES + capacity * INT_RECORD_BYTES
        if len(data) < need:
            raise ValueError(f"INT band needs {need} bytes, got {len(data)}")
        records = [
            INTHopRecord.from_bytes(data[INT_HEADER_BYTES + i * INT_RECORD_BYTES :])
            for i in range(count)
        ]
        return cls(
            capacity=capacity,
            version=version,
            records=records,
            overflowed=bool(flags & _EXT_FLAG_OVERFLOWED),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, INTExtension):
            return NotImplemented
        return (
            self.version == other.version
            and self.capacity == other.capacity
            and self.records == other.records
            and self.overflowed == other.overflowed
        )

    def __repr__(self) -> str:
        return (
            f"<INTExtension v{self.version} {len(self.records)}/{self.capacity} records"
            f"{' overflowed' if self.overflowed else ''}>"
        )


# -- enablement ---------------------------------------------------------------

_INT_CAPACITY: Optional[int] = None


def enable_int(capacity: int = DEFAULT_INT_CAPACITY) -> None:
    """Have the packetizer attach an INT band to every gradient packet."""
    if not 1 <= capacity <= 255:
        raise ValueError(f"capacity must be in [1, 255], got {capacity}")
    global _INT_CAPACITY
    _INT_CAPACITY = capacity


def disable_int() -> None:
    """Stop attaching INT bands (the default)."""
    global _INT_CAPACITY
    _INT_CAPACITY = None


def int_capacity() -> Optional[int]:
    """The configured band capacity, or None when INT is disabled."""
    return _INT_CAPACITY


# -- receiver-side collection -------------------------------------------------


class INTCollector:
    """Sinks delivered INT records into per-(job, layer, hop) series.

    The *job* is the transport flow id and the *layer* is the gradient
    message id — the granularity the adaptive-codec controller needs to
    answer "which layer's packets are being trimmed, where, and when".

    Args:
        enabled: collect records (False = one attribute check per call).
        jsonl_path: stream one JSON line per record (sorted keys,
            simulation time only — byte-identical for the same seed).
    """

    def __init__(
        self,
        enabled: bool = False,
        jsonl_path: Optional[str] = None,
    ) -> None:
        self.enabled = enabled
        self.jsonl_path = jsonl_path
        #: every (flow_id, message_id, hop_id) a record arrived on.
        self.series: Set[Tuple[int, int, int]] = set()
        self.packets_collected = 0
        #: decision code -> delivered records; the one record counter.
        self.records_by_decision: Dict[int, int] = {}
        self.overflowed_packets = 0
        self._sink: Optional[IO[str]] = None
        registry = get_registry()
        records = registry.counter("repro_int_records_total", ("decision",))
        by_decision = self.records_by_decision  # the hook must not hold the collector
        published: Dict[int, int] = {}

        def _publish_metrics() -> None:
            """Hand the per-decision growth to the registry (runs on flush)."""
            for decision, count in by_decision.items():
                gained = count - published.get(decision, 0)
                if gained:
                    published[decision] = count
                    records.inc(gained, decision=decision_name(decision))

        registry.add_flush_hook(_publish_metrics, self)

    @property
    def records_collected(self) -> int:
        return sum(self.records_by_decision.values())

    def collect(self, packet: "Packet") -> int:
        """Sink one delivered packet's band; returns records collected."""
        if not self.enabled:
            return 0
        ext = packet.int_ext
        if ext is None or not ext.records:
            return 0
        message_id = packet.message_id or 0
        flow_id = packet.flow_id
        self.packets_collected += 1
        if ext.overflowed:
            self.overflowed_packets += 1
        by_decision = self.records_by_decision
        for record in ext.records:
            self.series.add((flow_id, message_id, record.hop))
            by_decision[record.decision] = by_decision.get(record.decision, 0) + 1
            if self.jsonl_path is not None:
                if self._sink is None:
                    self._sink = open(self.jsonl_path, "w", encoding="utf-8")
                self._sink.write(
                    json.dumps(self._record_json(flow_id, message_id, packet.seq, record),
                               sort_keys=True)
                    + "\n"
                )
        return len(ext.records)

    @staticmethod
    def _record_json(
        flow_id: int, message_id: int, seq: int, record: INTHopRecord
    ) -> Dict[str, object]:
        return {
            "flow": flow_id,
            "message": message_id,
            "seq": seq,
            "hop": record.hop,
            "hop_name": hop_name(record.hop),
            "t": record.sim_time,
            "queue_depth_bytes": record.queue_depth_bytes,
            "fill_permille": record.fill_permille,
            "decision": decision_name(record.decision),
            "reason": reason_name(record.reason),
            "aux": record.aux,
        }

    # -- analysis -----------------------------------------------------------

    def hops_seen(self) -> List[str]:
        """Names of every hop that contributed a record, sorted."""
        return sorted({hop_name(hop) for _, _, hop in self.series})

    def decision_counts(self) -> Dict[str, int]:
        """Delivered records per decision, over every series."""
        return dict(
            sorted((decision_name(d), n) for d, n in self.records_by_decision.items())
        )

    def summary(self) -> Dict[str, object]:
        """Deterministic JSON-ready digest."""
        return {
            "packets": self.packets_collected,
            "records": self.records_collected,
            "overflowed_packets": self.overflowed_packets,
            "hops": self.hops_seen(),
            "decisions": self.decision_counts(),
            "series": len(self.series),
        }

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Flush and close the JSONL sink (idempotent)."""
        if self._sink is not None:
            self._sink.close()
            self._sink = None


_COLLECTOR = INTCollector(enabled=False)


def get_int_collector() -> INTCollector:
    """The process-wide collector (disabled unless someone enabled it)."""
    return _COLLECTOR


def set_int_collector(collector: INTCollector) -> INTCollector:
    """Install ``collector`` process-wide; returns the previous one."""
    global _COLLECTOR
    previous = _COLLECTOR
    _COLLECTOR = collector
    return previous

