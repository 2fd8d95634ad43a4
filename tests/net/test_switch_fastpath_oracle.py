"""Oracle for the one-pass forwarding path in ``Switch.receive``.

``Switch.receive`` settles every packet in one pass: one
``PriorityQueue.admit`` (which passes a packet for an idle serializer
straight through), one ``Link._start`` hand-off, and an overflow trimmed
or dropped on the spot with one trim-policy call.  ``SlowSwitch`` below
is the path it replaced, kept here as reference code that shares
nothing with the rule under test: hosts inject through
``push_then_kick`` (tests/net/queue_oracle.py), and every packet goes
through ``forward`` — ``push_then_kick`` again, a second
push on overflow, and a ``decide`` / ``apply`` pair of policy calls that
allocate a :class:`TrimDecision`.  The same seeded traffic through both
must leave every counter, every delivery, every INT record and the
event count identical.
"""

import dataclasses
import functools
from typing import Optional

import numpy as np
import pytest

from repro.core import SignMagnitudeCodec, packetize
from repro.core.multilevel import MultiLevelCodec
from repro.net.crosstraffic import IncastBurst, OnOffFlow
from repro.net.switch import Switch
from repro.net.topology import dumbbell, fat_tree
from repro.obs.int_telemetry import (
    AUX_PATH_CHANGED,
    DECISION_FORWARD,
    DECISION_TRIM,
    REASON_BUFFER_OVERFLOW,
    INTExtension,
    disable_int,
    enable_int,
)
from repro.packet import MultiLevelTrim, NeverTrim, SingleLevelTrim
from tests.net.queue_oracle import push_then_kick


@dataclasses.dataclass(frozen=True)
class TrimDecision:
    """What the reference switch decided to do with an overflowing packet."""

    action: str  # "trim" | "drop"
    level: int = 0


def decide(policy, packet, queue_fill) -> TrimDecision:
    """The reference ``TrimPolicy.decide`` of every shipped policy."""
    if isinstance(policy, NeverTrim) or packet.trimmable_bytes() is None:
        return TrimDecision(action="drop")
    if isinstance(policy, SingleLevelTrim):
        return TrimDecision(action="trim")
    level = -1
    for i, threshold in enumerate(policy.thresholds):
        if queue_fill >= threshold:
            level = i
    return TrimDecision(action="trim", level=max(level, 0))


def apply(policy, packet, decision) -> Optional[object]:
    """The reference ``TrimPolicy.apply``: the remnant, or None to drop."""
    if decision.action == "drop":
        return None
    if isinstance(policy, MultiLevelTrim):
        return packet.trim(policy.level_bits[decision.level])
    return packet.trim()


class SlowSwitch(Switch):
    """Route, check the port, then always call ``forward``."""

    def receive(self, packet, ingress=None):
        if self.failed:
            self._drop(packet, "switch-down")
            return
        picked = self._pick_ecmp(packet)
        if picked is None:
            self._drop(packet, "no-route")
            return
        next_hop, ecmp_aux, link = picked
        if next_hop in self.ports_down:
            converged = next_hop in self._converged_down
            self._drop(packet, "port-blackout" if converged else "blackhole")
            return
        key = (packet.src, packet.dst, packet.flow_id)
        if key in self._path_changed:
            self._path_changed.discard(key)
            if packet.int_ext is not None:
                ecmp_aux |= AUX_PATH_CHANGED
        self.forward(packet, link, ecmp_aux=ecmp_aux)

    def forward(self, packet, link, ecmp_aux=0):
        """Enqueue on ``link``, trimming or dropping on overflow."""
        queue = link.queue
        fill_before = queue.data_band().fill
        if push_then_kick(link, packet):
            if packet.int_ext is not None:
                packet.int_ext.stamp(
                    self._int_hop,
                    DECISION_FORWARD,
                    0,
                    self.sim.now,
                    queue_depth_bytes=queue.bytes_queued,
                    fill_permille=int(fill_before * 1000),
                    aux=ecmp_aux,
                )
            self.stats.forwarded += 1
            return
        if queue.band_for(packet) != len(queue.bands) - 1:
            self._drop(packet, "header-band-overflow")
            return
        decision = decide(self.trim_policy, packet, fill_before)
        remnant = apply(self.trim_policy, packet, decision)
        if remnant is None or remnant.wire_size >= packet.wire_size:
            self._drop(packet, "buffer-overflow")
            return
        if push_then_kick(link, remnant):
            if remnant.int_ext is not None:
                remnant.int_ext.stamp(
                    self._int_hop,
                    DECISION_TRIM,
                    REASON_BUFFER_OVERFLOW,
                    self.sim.now,
                    queue_depth_bytes=queue.bytes_queued,
                    fill_permille=int(fill_before * 1000),
                    aux=decision.level,
                )
            self.stats.trimmed += 1
            self.stats.trimmed_bytes_saved += packet.wire_size - remnant.wire_size
            if self.flow_classifier is not None:
                self.flow_classifier(packet.flow_id, "trim", "buffer-overflow")
        else:
            self._drop(packet, "header-band-overflow")


def _congested_dumbbell():
    """Trimmable gradient packets and an incast share one 40 kB queue."""
    net = dumbbell(
        pairs=4,
        bottleneck_rate_bps=25e9,
        trim_policy=SingleLevelTrim(),
        ecn_threshold_bytes=15_000,
        buffer_bytes=40_000,
    )

    def traffic():
        gradient = np.random.default_rng(0).standard_normal(40_000)
        for packet in packetize(
            SignMagnitudeCodec().encode(gradient), "tx0", "rx0", flow_id=5
        ):
            net.hosts["tx0"].send(packet)
        senders = [net.hosts[f"tx{i}"] for i in (1, 2, 3)]
        IncastBurst(
            net.sim, senders, "rx1", burst_bytes=60_000, jitter_s=5e-6, seed=3
        ).fire(at=2e-6)
        net.sim.run()

    return net, traffic


def _int_dumbbell():
    """The congested dumbbell with an INT band on every gradient packet."""
    net, traffic = _congested_dumbbell()

    def armed():
        enable_int()
        try:
            traffic()
        finally:
            disable_int()

    return net, armed


def _multilevel_dumbbell():
    """Tiered packets under ``MultiLevelTrim``, half of them INT-armed.

    Every express band is shrunk to about one full-size packet, so
    remnants overflow it too and drop as ``header-band-overflow``.
    """
    net = dumbbell(
        pairs=4,
        bottleneck_rate_bps=25e9,
        trim_policy=MultiLevelTrim(level_bits=[8, 1], thresholds=[0.5, 0.985]),
        ecn_threshold_bytes=15_000,
        buffer_bytes=40_000,
    )
    for switch in net.switches.values():
        for link in switch.ports.values():
            link.queue.bands[0].capacity_bytes = 2_000

    def traffic():
        gradient = np.random.default_rng(1).standard_normal(60_000)
        codec = MultiLevelCodec(root_seed=3, row_size=1024)
        packets = packetize(codec.encode(gradient), "tx0", "rx0", flow_id=5)
        for index, packet in enumerate(packets):
            if index % 2:
                packet = dataclasses.replace(packet, int_ext=INTExtension())
            net.hosts["tx0"].send(packet)
        senders = [net.hosts[f"tx{i}"] for i in (1, 2, 3)]
        IncastBurst(
            net.sim, senders, "rx1", burst_bytes=60_000, jitter_s=5e-6, seed=3
        ).fire(at=2e-6)
        net.sim.run()

    return net, traffic


def _ecmp_fat_tree():
    """Cross-pod on/off tenants plus an incast on a shallow ECMP fat-tree."""
    net = fat_tree(
        k=4,
        rate_bps=10e9,
        ecmp=True,
        ecmp_seed=3,
        buffer_bytes=20_000,
        ecn_threshold_bytes=6_000,
    )

    def traffic():
        pairs = [
            ("h0_0_0", "h2_1_1"),
            ("h0_0_1", "h3_0_0"),
            ("h1_0_0", "h3_1_1"),
            ("h2_1_0", "h0_0_1"),
        ]
        for index, (src, dst) in enumerate(pairs):
            OnOffFlow(
                net.sim,
                net.hosts[src],
                dst,
                rate_bps=6e9,
                burst_s=100e-6,
                idle_s=30e-6,
                seed=index,
                flow_id=700 + index,
                stop_at=1e-3,
            ).start()
        senders = [net.hosts[name] for name in ("h1_1_0", "h2_0_0", "h3_0_1")]
        IncastBurst(net.sim, senders, "h0_1_1", burst_bytes=30_000, seed=5).fire(
            at=200e-6
        )
        net.sim.run(until=1.5e-3)

    return net, traffic


def _observe(build, slow):
    """Run one scenario; return everything the fast path could get wrong."""
    net, traffic = build()
    if slow:
        for switch in net.switches.values():
            switch.__class__ = SlowSwitch
        for host in net.hosts.values():
            host.uplink.enqueue = functools.partial(push_then_kick, host.uplink)
    deliveries = {name: [] for name in net.hosts}
    for name, host in net.hosts.items():
        host.set_default_handler(
            lambda p, log=deliveries[name]: log.append(
                (
                    net.sim.now,
                    p.flow_id,
                    p.seq,
                    p.is_trimmed,
                    p.ecn,
                    p.wire_size,
                    None if p.int_ext is None else tuple(p.int_ext.records),
                )
            )
        )
    traffic()
    links = {}
    for switch in net.switches.values():
        for neighbor, link in switch.ports.items():
            links[f"{switch.name}->{neighbor}"] = link
    for host in net.hosts.values():
        links[f"{host.name}->"] = host.uplink
    return {
        "switches": {
            name: dataclasses.asdict(switch.stats)
            for name, switch in net.switches.items()
        },
        "links": {
            label: (link.packets_sent, link.bytes_sent) for label, link in links.items()
        },
        "bands": {
            label: [
                (b.enqueued, b.dequeued, b.rejected, b.ecn_marked, b.peak_bytes)
                for b in link.queue.bands
            ]
            for label, link in links.items()
        },
        "deliveries": deliveries,
        "events": net.sim.events_processed,
    }


@pytest.mark.parametrize(
    "build", [_congested_dumbbell, _ecmp_fat_tree, _int_dumbbell, _multilevel_dumbbell]
)
def test_fused_fast_path_matches_forward(build):
    fast = _observe(build, slow=False)
    slow = _observe(build, slow=True)
    for part in fast:
        assert fast[part] == slow[part], part

    # The scenario must reach every branch the one-pass path replicates —
    # pass-through, queued push, ECN mark — and the overflow outcomes.
    stats = fast["switches"].values()
    bands = [band for per_link in fast["bands"].values() for band in per_link]
    assert sum(s["forwarded"] for s in stats) > 100
    assert sum(s["dropped"] for s in stats) > 0
    assert sum(b[3] for b in bands) > 0  # ecn_marked
    assert any(b[4] > 1_500 for b in bands)  # peak_bytes: packets queued
    assert any(fast["deliveries"].values())
    if build is _ecmp_fat_tree:
        return
    assert sum(s["trimmed"] for s in stats) > 0
    assert any(d[3] for d in fast["deliveries"]["rx0"])
    if build is _congested_dumbbell:
        return
    records = [r for d in fast["deliveries"]["rx0"] if d[6] for r in d[6]]
    assert {r.decision for r in records} == {DECISION_FORWARD, DECISION_TRIM}
    if build is _multilevel_dumbbell:
        levels = {r.aux for r in records if r.decision == DECISION_TRIM}
        assert levels == {0, 1}
        kinds = set().union(*(s["drops_by_kind"] for s in stats))
        assert {"buffer-overflow", "header-band-overflow"} <= kinds
