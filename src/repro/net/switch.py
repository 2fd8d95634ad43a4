"""Shallow-buffer switch with trim-on-overflow.

The paper's enabling mechanism: when an egress queue fills, the switch —
instead of dropping — *trims* a gradient packet down to its decodable
head and forwards the remnant in a strict-priority express band, like
NDP/EODS and the packet-trimming features of Tofino, Trident 4 and
Spectrum 2.  The trim depth is delegated to a
:class:`~repro.packet.trim.TrimPolicy`, so the same switch runs drop-tail
(``NeverTrim``), classic single-level trimming, or the Section 5.1
multi-level policy.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from ..obs.int_telemetry import (
    AUX_PATH_CHANGED,
    DECISION_DROP,
    DECISION_FORWARD,
    DECISION_TRIM,
    REASON_BLACKHOLE,
    REASON_BUFFER_OVERFLOW,
    REASON_HEADER_BAND_OVERFLOW,
    REASON_NO_ROUTE,
    REASON_PORT_BLACKOUT,
    REASON_SWITCH_DOWN,
    hop_id,
)
from ..obs.metrics import get_registry
from ..obs.trace import get_tracer
from ..obs import trace as _obs_trace
from ..packet.packet import Packet
from ..packet.trim import NeverTrim, TrimPolicy
from .link import Device, Link
from .queues import ByteQueue, PriorityQueue
from .simulator import Simulator

__all__ = ["Switch", "SwitchStats", "HEADER_BAND_BYTES"]

#: Express-band capacity per egress port, for trimmed headers, ACKs and
#: metadata (small packets, so a modest reserve beside the data band).
HEADER_BAND_BYTES = 30_000

#: Drop kinds → INT reason codes stamped into the telemetry band.
_DROP_REASONS = {
    "no-route": REASON_NO_ROUTE,
    "port-blackout": REASON_PORT_BLACKOUT,
    "header-band-overflow": REASON_HEADER_BAND_OVERFLOW,
    "buffer-overflow": REASON_BUFFER_OVERFLOW,
    "blackhole": REASON_BLACKHOLE,
    "switch-down": REASON_SWITCH_DOWN,
}


@dataclass
class SwitchStats:
    """Counters for one switch."""

    forwarded: int = 0
    trimmed: int = 0
    dropped: int = 0
    trimmed_bytes_saved: int = 0
    drops_by_kind: Dict[str, int] = field(default_factory=dict)
    # ECMP accounting: flows hashed onto an equal-cost port that already
    # carries other flows (the hash-collision hotspots that make one
    # core link congest while its siblings idle).
    ecmp_flows: int = 0
    ecmp_collisions: int = 0
    # Flows rehomed onto a surviving equal-cost leg after a port died.
    reroutes: int = 0

    def note_drop(self, kind: str) -> None:
        self.dropped += 1
        self.drops_by_kind[kind] = self.drops_by_kind.get(kind, 0) + 1

    @property
    def blackhole(self) -> int:
        """Packets lost to a stale FIB during reroute convergence."""
        return self.drops_by_kind.get("blackhole", 0)

    @property
    def enqueues(self) -> int:
        """Every packet that reached an egress decision."""
        return self.forwarded + self.trimmed + self.dropped

    @property
    def trim_fraction(self) -> float:
        """Trimmed share of all egress decisions (the paper's headline rate)."""
        total = self.enqueues
        return self.trimmed / total if total else 0.0

    @property
    def drop_fraction(self) -> float:
        """Dropped share of all egress decisions."""
        total = self.enqueues
        return self.dropped / total if total else 0.0


class Switch(Device):
    """A store-and-forward switch with shallow per-port buffers.

    Args:
        name: switch id.
        sim: the event loop.
        buffer_bytes: data-band capacity per egress port (the shallow
            buffer; the paper's switches trim precisely because this is
            small).
        ecn_threshold_bytes: DCTCP-style marking threshold on the data
            band (None disables ECN).
        trim_policy: what to do on overflow; defaults to drop-tail.
        reroute_delay_s: FIB convergence delay after a port goes down.
            Packets hashed onto the dead leg blackhole for this long
            (the stale-FIB window every real fabric has), then the
            switch evicts exactly those flows from its flow table and
            rehashes them across the surviving equal-cost legs.
    """

    def __init__(
        self,
        name: str,
        sim: Simulator,
        buffer_bytes: int = 60_000,
        ecn_threshold_bytes: Optional[int] = None,
        trim_policy: Optional[TrimPolicy] = None,
        reroute_delay_s: float = 50e-6,
    ) -> None:
        super().__init__(name, sim)
        self.buffer_bytes = buffer_bytes
        self.ecn_threshold_bytes = ecn_threshold_bytes
        self.trim_policy = trim_policy or NeverTrim()
        self.ports: Dict[str, Link] = {}
        # Ports currently blacked out by fault injection: packets routed
        # toward them are dropped until the port comes back, modelling a
        # dead transceiver / unplugged cable.  Before the FIB converges
        # the drops are "blackhole" (stale flow table); afterwards flows
        # rehome onto surviving legs, and only routes with no live
        # alternative keep dropping (legacy kind "port-blackout").
        self.ports_down: set = set()
        self.reroute_delay_s = reroute_delay_s
        # Whole-device failure: every received packet drops as
        # "switch-down" and the egress serializers go dark.
        self.failed = False
        # Down ports whose reroute-convergence delay has elapsed:
        # route_lookup steers new placements around these.
        self._converged_down: set = set()
        # Flow keys evicted by a convergence event, mapped to the dead
        # leg they sat on — the next packet of such a flow either counts
        # a reroute (new leg differs) or re-pins to the dead leg when no
        # alternative exists.
        self._reroute_pending: Dict[Tuple[str, str, int], str] = {}
        # Flow keys whose next INT forward record gets AUX_PATH_CHANGED
        # OR-ed into aux, so traces show exactly where a failover landed.
        self._path_changed: set = set()
        # dst host -> equal-cost next hops; flows are hashed across them
        # (ECMP).  A single-element list is plain shortest-path routing.
        self.routes: Dict[str, list] = {}
        # ECMP hash salt, set for the whole fabric by
        # Network.build_routes(ecmp=True, ecmp_seed=...) via the shared
        # "ecmp" PRNG purpose; 0 keeps the legacy unseeded placement.
        self.ecmp_salt = 0
        # (src, dst, flow_id) -> (next hop, path index, egress link).
        # Per-flow state, like a real switch's flow table: the 5-tuple
        # hash runs once per flow, not per packet, the cached index
        # feeds INT aux, and the resolved Link rides along so the
        # forwarding path skips the ports lookup.
        self._ecmp_cache: Dict[Tuple[str, str, int], Tuple[str, int, Link]] = {}
        # Port -> number of distinct ECMP flows hashed onto it (collision
        # accounting for the fairness reports).
        self._ecmp_load: Dict[str, int] = {}
        # Cluster seam: maps a flow id to a tenant/job label on the cold
        # paths (trim/drop) so multi-tenant runs can attribute damage.
        self.flow_classifier: Optional[Callable[[int, str, str], None]] = None
        self.stats = stats = SwitchStats()
        # Stable small-integer id this switch stamps into INT records.
        self._int_hop = hop_id(name)
        # SwitchStats is the only thing the forwarding path writes; the
        # registry reads it when it is flushed, the switch dead or alive
        # (see MetricsRegistry.add_flush_hook).
        registry = get_registry()
        registry.publish_tally(self, stats, {
            "forwarded": registry.counter("repro_switch_forwarded_total", ("switch",)),
            "trimmed": registry.counter("repro_switch_trimmed_total", ("switch",)),
            "trimmed_bytes_saved": registry.counter(
                "repro_switch_trim_bytes_saved_total", ("switch",)
            ),
            "ecmp_collisions": registry.counter("repro_switch_ecmp_collisions_total", ("switch",)),
            "reroutes": registry.counter("repro_switch_reroutes_total", ("switch",)),
        }, switch=name)
        dropped = registry.counter("repro_switch_dropped_total", ("switch", "kind"))
        dropped_seen: Dict[str, int] = {}

        def _publish_metrics() -> None:
            for kind, count in stats.drops_by_kind.items():
                gained = count - dropped_seen.get(kind, 0)
                if gained:
                    dropped_seen[kind] = count
                    dropped.inc(gained, switch=name, kind=kind)

        registry.add_flush_hook(_publish_metrics, self)

    # -- wiring -------------------------------------------------------------

    def make_queue(self) -> PriorityQueue:
        """Egress queue template: express band over a shallow data band."""
        return PriorityQueue(
            band_capacities=[HEADER_BAND_BYTES, self.buffer_bytes],
            ecn_threshold_bytes=self.ecn_threshold_bytes,
        )

    def attach(self, neighbor: str, link: Link) -> None:
        """Register the egress link toward ``neighbor``."""
        self.ports[neighbor] = link

    def set_route(self, dst_host: str, next_hop) -> None:
        """Static route toward ``dst_host``.

        ``next_hop`` may be one neighbor name or a list of equal-cost
        neighbors; flows are spread across a list by hashing the flow id
        (per-flow ECMP, so a flow's packets stay in order).
        """
        hops = [next_hop] if isinstance(next_hop, str) else sorted(next_hop)
        for hop in hops:
            if hop not in self.ports:
                raise ValueError(f"{self.name}: no port toward {hop}")
        if not hops:
            raise ValueError("next_hop list is empty")
        self.routes[dst_host] = hops
        # Route changes invalidate the per-flow placement (and its load
        # accounting): flows re-hash against the new equal-cost set.
        if self._ecmp_cache:
            self._ecmp_cache.clear()
            self._ecmp_load.clear()
            self._reroute_pending.clear()
            self._path_changed.clear()

    def set_port_down(self, neighbor: str, down: bool = True) -> None:
        """Black out (or restore) the egress port toward ``neighbor``.

        Going down starts a :attr:`reroute_delay_s` stale-FIB window:
        flows pinned to the dead leg blackhole until the scheduled
        convergence callback evicts exactly those flows, after which
        they rehash across the surviving equal-cost legs.  Flows on
        other legs keep their cached placement throughout (selective
        invalidation — intra-flow ordering on survivors is untouched).
        Restoring the port does not move rerouted flows back: like a
        real fabric, placements are sticky until the flow table ages
        out or the route set changes.
        """
        if neighbor not in self.ports:
            raise ValueError(f"{self.name}: no port toward {neighbor}")
        if down:
            if neighbor in self.ports_down:
                return
            self.ports_down.add(neighbor)
            self.sim.schedule_call(self.reroute_delay_s, self._converge, neighbor)
        else:
            self.ports_down.discard(neighbor)
            self._converged_down.discard(neighbor)

    def _converge(self, neighbor: str) -> None:
        """FIB convergence: route around ``neighbor``, evict its flows.

        Only entries pinned to the dead leg are evicted (with exact
        ``_ecmp_load`` decrements); every other flow keeps its cached
        placement.  Evicted keys go to ``_reroute_pending`` so the next
        packet of each flow counts a reroute when it lands on a
        different leg.
        """
        if neighbor not in self.ports_down:
            return  # restored before the FIB caught up
        self._converged_down.add(neighbor)
        if not self._ecmp_cache:
            return
        victims = [
            key for key, entry in self._ecmp_cache.items() if entry[0] == neighbor
        ]
        for key in victims:
            hop, aux, _link = self._ecmp_cache.pop(key)
            if aux:
                carried = self._ecmp_load.get(hop, 0) - 1
                if carried > 0:
                    self._ecmp_load[hop] = carried
                else:
                    self._ecmp_load.pop(hop, None)
            self._reroute_pending[key] = hop

    def set_failed(self, failed: bool = True) -> None:
        """Kill (or revive) the whole device.

        A failed switch drops everything it receives as "switch-down"
        and its egress serializers go dark (``link.up = False``), so
        in-flight packets toward *and* through it are lost.  Neighbor
        FIB reaction is the fault injector's job: it calls
        :meth:`set_port_down` on every adjacent switch so their flows
        reroute around the corpse.
        """
        self.failed = failed
        for link in self.ports.values():
            link.up = not failed

    def route_lookup(self, src: str, dst: str, flow_id: int) -> Optional[Tuple[str, int]]:
        """Pure ECMP resolution: (next hop, INT aux code), or None.

        Multi-path groups hash the flow's 5-tuple stand-in — ``(src,
        dst, flow_id)`` plus the switch name and the fabric-wide
        ``ecmp_salt`` — with crc32 (stable across runs, unlike builtin
        ``hash``) pushed through a splitmix64-style finalizer.  The aux
        code is ``path index + 1`` for multi-path groups and 0 on a
        single-path route, so INT records show which equal-cost leg a
        packet took.  No state is touched: tests and
        :meth:`Network.flow_path` call this to predict placements
        without perturbing flow tables.
        """
        cached = self._ecmp_cache.get((src, dst, flow_id))
        if cached is not None:
            # Flow-table entries win: survivors of a failover keep their
            # placement, so prediction must read the same state the
            # forwarding path does.
            return cached[0], cached[1]
        hops = self.routes.get(dst)
        if not hops:
            return None
        if len(hops) == 1:
            return hops[0], 0
        if self._converged_down:
            # Post-convergence FIB: hash only across live legs, but keep
            # aux as the leg's index in the *full* group so INT traces
            # name the same leg before and after a failover.  With no
            # live leg left we fall back to the full set — the flow
            # pins to a dead port and drops as legacy "port-blackout".
            live = [h for h in hops if h not in self._converged_down]
            if live:
                if len(live) == 1:
                    return live[0], hops.index(live[0]) + 1
                hop = live[self._flow_hash(src, dst, flow_id) % len(live)]
                return hop, hops.index(hop) + 1
        index = self._flow_hash(src, dst, flow_id) % len(hops)
        return hops[index], index + 1

    def _flow_hash(self, src: str, dst: str, flow_id: int) -> int:
        """crc32 of the flow's identity, salted and avalanched to 64 bits.

        CRC32 alone is linear over GF(2): two salts hashed into the
        digest differ by a constant XOR per message length, which mod
        a small hop count collapses to a handful of parity bits — a
        polarization that both correlates the choice across tiers
        (every switch resolving a flow the same way) and makes many
        salts placement-equivalent.  The splitmix64-style multiply /
        xor-shift finalizer breaks that linearity, so distinct salts
        give uncorrelated placements.
        """
        digest = zlib.crc32(f"{self.name}|{src}|{dst}|{flow_id}".encode())
        x = (digest | (self.ecmp_salt << 32)) & 0xFFFFFFFFFFFFFFFF
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
        return x ^ (x >> 31)

    def _pick_ecmp(self, packet: Packet) -> Optional[Tuple[str, int, Link]]:
        """:meth:`route_lookup` plus the per-flow cache and accounting.

        The hash runs once per flow, like a real switch's flow table;
        the cached placement keeps a flow's packets in order and new
        cache entries feed the ECMP load/collision counters.
        """
        key = (packet.src, packet.dst, packet.flow_id)
        cached = self._ecmp_cache.get(key)
        if cached is not None:
            return cached
        resolved = self.route_lookup(packet.src, packet.dst, packet.flow_id)
        if resolved is None:
            return None
        hop, aux = resolved
        entry = (hop, aux, self.ports[hop])
        if aux == 0:
            # Single-path routes skip the flow table; a key evicted by a
            # convergence event just re-pins (nothing to reroute onto).
            if self._reroute_pending:
                self._reroute_pending.pop(key, None)
            return entry
        self._ecmp_cache[key] = entry
        carried = self._ecmp_load.get(hop, 0)
        if self._reroute_pending:
            old_hop = self._reroute_pending.pop(key, None)
            if old_hop is not None:
                self._ecmp_load[hop] = carried + 1
                if old_hop == hop:
                    # No live alternative: the flow re-pinned to the
                    # dead leg.  Not a reroute — it will keep dropping
                    # as "port-blackout" until the port comes back.
                    return entry
                self.stats.reroutes += 1
                self._path_changed.add(key)
                tracer = get_tracer()
                if tracer.enabled:
                    tracer.event(
                        "switch.reroute",
                        sim_time=self.sim.now,
                        switch=self.name,
                        src=packet.src,
                        dst=packet.dst,
                        flow_id=packet.flow_id,
                        old_hop=old_hop,
                        new_hop=hop,
                    )
                return entry
        self.stats.ecmp_flows += 1
        if carried:
            self.stats.ecmp_collisions += 1
        self._ecmp_load[hop] = carried + 1
        return entry

    # -- forwarding -----------------------------------------------------------

    def receive(self, packet: Packet, ingress: Optional[Link] = None) -> None:
        if self.failed:
            self._drop(packet, "switch-down")
            return
        # Flow-table hit first: per packet this is one dict probe; the
        # full _pick_ecmp resolution only runs on a miss.  Single-path
        # routes skip _pick_ecmp's flow accounting but still cache here
        # so repeat packets of the flow take the one-probe path.
        key = (packet.src, packet.dst, packet.flow_id)
        cached = self._ecmp_cache.get(key)
        if cached is None:
            cached = self._pick_ecmp(packet)
            if cached is None:
                self._drop(packet, "no-route")
                return
            if cached[1] == 0:
                self._ecmp_cache[key] = cached
        next_hop, ecmp_aux, link = cached
        if self.ports_down and next_hop in self.ports_down:
            if next_hop in self._converged_down:
                # FIB converged but this flow had nowhere to go (no
                # live equal-cost alternative): legacy blackout drop.
                self._drop(packet, "port-blackout")
            else:
                # Stale-FIB window: the port is dead but the flow table
                # still points at it, so the packet silently vanishes.
                self._drop(packet, "blackhole")
            return
        if self._path_changed and key in self._path_changed:
            self._path_changed.discard(key)
            if packet.int_ext is not None:
                ecmp_aux = ecmp_aux | AUX_PATH_CHANGED
        # One pass from here: the queue's one admission rule, the link's
        # one hand-off, and an overflow settled on the spot — forwarded,
        # trimmed or dropped.
        queue = link.queue
        int_ext = packet.int_ext
        if int_ext is not None:
            fill_permille = int(queue.data_band().fill * 1000)
        idle = not link._busy
        if not queue.admit(packet, idle):
            data = queue.data_band()
            if queue.bands[queue.band_for(packet)] is data:
                self._trim_or_drop(packet, link, data)
            else:
                # The express band holds tiny packets already: no trim.
                self._drop(packet, "header-band-overflow")
            return
        if idle:
            link._start(packet)
        if int_ext is not None:
            int_ext.stamp(
                self._int_hop,
                DECISION_FORWARD,
                0,
                self.sim.now,
                queue_depth_bytes=queue.bytes_queued,
                fill_permille=fill_permille,
                aux=ecmp_aux,
            )
        self.stats.forwarded += 1
        tracer = _obs_trace._TRACER
        if tracer.enabled:
            tracer.event(
                "switch.forward",
                sim_time=self.sim.now,
                switch=self.name,
                dst=packet.dst,
                flow_id=packet.flow_id,
                seq=packet.seq,
                bytes=packet.wire_size,
                queue_bytes=queue.bytes_queued,
            )

    def _trim_or_drop(self, packet: Packet, link: Link, data: ByteQueue) -> None:
        """Settle a data-band overflow: admit the trim policy's remnant
        to its own band, or drop.

        ``data`` is the full data band; the rejection is counted already.
        The remnant goes through the same admission and hand-off as any
        packet, and a full express band drops the packet as
        ``header-band-overflow``.
        """
        fill = data.fill
        trimmed = self.trim_policy.trim(packet, fill)
        if trimmed is None:
            self._drop(packet, "buffer-overflow")
            return
        remnant, level = trimmed
        queue = link.queue
        idle = not link._busy
        if not queue.admit(remnant, idle):
            self._drop(packet, "header-band-overflow")
            return
        if idle:
            link._start(remnant)
        wire = remnant.wire_size
        saved = packet.wire_size - wire
        if remnant.int_ext is not None:
            remnant.int_ext.stamp(
                self._int_hop,
                DECISION_TRIM,
                REASON_BUFFER_OVERFLOW,
                self.sim.now,
                queue_depth_bytes=queue.bytes_queued,
                fill_permille=int(fill * 1000),
                aux=level,
            )
        self.stats.trimmed += 1
        self.stats.trimmed_bytes_saved += saved
        if self.flow_classifier is not None:
            self.flow_classifier(packet.flow_id, "trim", "buffer-overflow")
        tracer = _obs_trace._TRACER
        if tracer.enabled:
            tracer.event(
                "switch.trim",
                sim_time=self.sim.now,
                switch=self.name,
                dst=packet.dst,
                flow_id=packet.flow_id,
                seq=packet.seq,
                bytes_saved=saved,
                remnant_bytes=wire,
                fill_before=fill,
            )

    def _drop(self, packet: Packet, kind: str) -> None:
        if packet.int_ext is not None:
            # The record rides the dropped packet into oblivion, but a
            # retransmitted clone will carry this hop's next verdict.
            packet.int_ext.stamp(
                self._int_hop,
                DECISION_DROP,
                _DROP_REASONS.get(kind, 255),
                self.sim.now,
            )
        # SwitchStats.note_drop spelled out: 13,640 drops a ddp-dumbbell unit.
        stats = self.stats
        stats.dropped += 1
        kinds = stats.drops_by_kind
        kinds[kind] = kinds.get(kind, 0) + 1
        if self.flow_classifier is not None:
            self.flow_classifier(packet.flow_id, "drop", kind)
        tracer = _obs_trace._TRACER
        if tracer.enabled:
            tracer.event(
                "switch.drop",
                sim_time=self.sim.now,
                switch=self.name,
                kind=kind,
                dst=packet.dst,
                flow_id=packet.flow_id,
                seq=packet.seq,
                bytes=packet.wire_size,
            )

    # -- introspection ----------------------------------------------------------

    def queue_depth(self, neighbor: str) -> int:
        """Bytes queued toward ``neighbor``."""
        return self.ports[neighbor].queue.bytes_queued
