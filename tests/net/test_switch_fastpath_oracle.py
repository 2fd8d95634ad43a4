"""Oracle for the fused fast path in ``Switch.receive``.

``Switch.receive`` inlines forward -> enqueue -> push (and, on an idle
serializer, the pop as well) for packets without an INT band.
``SlowSwitch`` below never takes that shortcut: every packet goes
through :meth:`Switch.forward` and ``ByteQueue.push`` / ``pop``.  The
same seeded traffic through both must leave every counter, every
delivery and the event count identical.
"""

import dataclasses

import numpy as np
import pytest

from repro.core import SignMagnitudeCodec, packetize
from repro.net.crosstraffic import IncastBurst, OnOffFlow
from repro.net.switch import Switch
from repro.net.topology import dumbbell, fat_tree
from repro.packet import SingleLevelTrim


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
        self.forward(packet, link, ecmp_aux=ecmp_aux)


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
    deliveries = {name: [] for name in net.hosts}
    for name, host in net.hosts.items():
        host.set_default_handler(
            lambda p, log=deliveries[name]: log.append(
                (net.sim.now, p.flow_id, p.seq, p.is_trimmed, p.ecn, p.wire_size)
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


@pytest.mark.parametrize("build", [_congested_dumbbell, _ecmp_fat_tree])
def test_fused_fast_path_matches_forward(build):
    fast = _observe(build, slow=False)
    slow = _observe(build, slow=True)
    for part in fast:
        assert fast[part] == slow[part], part

    # The scenario must reach every branch the fused path replicates —
    # pass-through, queued push, ECN mark — and the overflow fallback.
    stats = fast["switches"].values()
    bands = [band for per_link in fast["bands"].values() for band in per_link]
    assert sum(s["forwarded"] for s in stats) > 100
    assert sum(s["dropped"] for s in stats) > 0
    assert sum(b[3] for b in bands) > 0  # ecn_marked
    assert any(b[4] > 1_500 for b in bands)  # peak_bytes: packets queued
    assert any(fast["deliveries"].values())
    if build is _congested_dumbbell:
        assert sum(s["trimmed"] for s in stats) > 0
        assert any(d[3] for d in fast["deliveries"]["rx0"])
