"""Oracle for host injection: ``Link.enqueue`` against push-then-kick.

``Link.enqueue`` admits a packet through ``PriorityQueue.admit`` and,
on a per-packet link whose serializer is idle, hands it straight to
``Link._start`` without storing it; a burst link stores it and kicks
``_try_transmit``.  ``push_then_kick`` (tests/net/queue_oracle.py) is
the eager push and kick it replaced.  The same seeded injections through
both must give the same deliveries at the same instants, the same
verdicts, the same band counters and the same event count: on a lone
link (per-packet and burst, clean, impaired and flapped, with rejections)
and on a congested dumbbell whose hosts inject at ``burst`` 1 and 8.
"""

import random

import numpy as np
import pytest

from repro.core import SignMagnitudeCodec, packetize
from repro.net import Link, Simulator
from repro.net.crosstraffic import IncastBurst, OnOffFlow
from repro.net.link import Device
from repro.net.queues import PriorityQueue
from repro.net.topology import dumbbell
from repro.packet import Packet, SingleLevelTrim
from tests.net.queue_oracle import push_then_kick


def _bands(queue):
    return [
        (b.enqueued, b.dequeued, b.rejected, b.ecn_marked, b.peak_bytes, b.bytes_queued)
        for b in queue.bands
    ]


class Sink(Device):
    """Logs every delivery with the state of the link that delivered it."""

    def __init__(self, name, sim):
        super().__init__(name, sim)
        self.link = None
        self.log = []

    def receive(self, packet, ingress=None):
        link = self.link
        self.log.append(
            (
                self.sim.now,
                packet.seq,
                packet.priority,
                packet.ecn,
                packet.wire_size,
                packet.is_trimmed,
                link.busy,
                link.packets_sent,
                link.bytes_sent,
            )
        )


def _packets(seed):
    """300 packets: ACKs, trimmable gradient packets and opaque filler."""
    rng = random.Random(seed)
    grads = packetize(
        SignMagnitudeCodec().encode(np.random.default_rng(seed).standard_normal(40_000)),
        "tx",
        "rx",
    )[1:]
    out = []
    for seq in range(300):
        roll = rng.random()
        if roll < 0.15:
            packet = Packet("tx", "rx", is_ack=True, priority=2, seq=seq)
        elif roll < 0.5:
            packet = grads[seq % len(grads)].clone()
            packet.seq = seq
        else:
            packet = Packet("tx", "rx", payload=b"\x00" * rng.choice([50, 500, 1416]), seq=seq)
        out.append((rng.choice([0.0, 0.0, 0.0, 1e-6, 5e-6, 30e-6]), packet))
    return out


def _lone_link(enqueue, burst, impairment, ecn):
    sim = Simulator()
    sink = Sink("rx", sim)
    queue = PriorityQueue([6_000, 12_000], ecn_threshold_bytes=ecn)
    drop, trim = (0.1, 0.3) if impairment == "lossy" else (0.0, 0.0)
    link = Link(
        sim, "tx", sink, 1e9, 2e-6, queue, drop_prob=drop, trim_prob=trim, seed=5, burst=burst
    )
    sink.link = link
    verdicts = []
    at = 0.0
    for gap, packet in _packets(seed=1):
        at += gap
        sim.schedule(
            at, lambda p=packet: verdicts.append((sim.now, p.seq, p.ecn, enqueue(link, p)))
        )
    if impairment == "flap":
        sim.schedule(200e-6, lambda: setattr(link, "up", False))
        sim.schedule(400e-6, lambda: setattr(link, "up", True))
    sim.run()
    return {
        "log": sink.log,
        "verdicts": verdicts,
        "bands": _bands(queue),
        "tally": (
            link.packets_sent,
            link.bytes_sent,
            link.packets_dropped,
            link.packets_trimmed,
            link.packets_lost_down,
        ),
        "events": sim.events_processed,
    }


@pytest.mark.parametrize("ecn", [None, 3_000])
@pytest.mark.parametrize("impairment", ["clean", "lossy", "flap"])
@pytest.mark.parametrize("burst", [1, 4])
def test_lone_link_matches_push_then_kick(burst, impairment, ecn):
    got = _lone_link(Link.enqueue, burst, impairment, ecn)
    want = _lone_link(push_then_kick, burst, impairment, ecn)
    # The run reaches what it pins: rejections and deliveries.
    assert any(not verdict[-1] for verdict in want["verdicts"])
    assert len(want["log"]) > 100
    for key in want:
        assert got[key] == want[key], key


def _dumbbell(burst, eager):
    """Gradient packets, on/off filler and an incast on one trimming
    bottleneck, every host injecting at ``burst``."""
    net = dumbbell(
        pairs=4,
        bottleneck_rate_bps=25e9,
        trim_policy=SingleLevelTrim(),
        ecn_threshold_bytes=15_000,
        buffer_bytes=40_000,
        host_burst=burst,
    )
    if eager:
        for host in net.hosts.values():
            host.uplink.enqueue = lambda p, link=host.uplink: push_then_kick(link, p)
    deliveries = {name: [] for name in net.hosts}
    for name, host in net.hosts.items():
        host.set_default_handler(
            lambda p, log=deliveries[name]: log.append(
                (net.sim.now, p.flow_id, p.seq, p.is_trimmed, p.ecn, p.wire_size)
            )
        )
    gradient = np.random.default_rng(0).standard_normal(40_000)
    packets = packetize(SignMagnitudeCodec().encode(gradient), "tx0", "rx0", flow_id=5)
    for at, packet in enumerate(packets):
        net.sim.schedule(at * 0.2e-6, lambda p=packet: net.hosts["tx0"].send(p))
    OnOffFlow(
        net.sim, net.hosts["tx3"], "rx3", rate_bps=20e9, seed=4, flow_id=9, stop_at=300e-6
    ).start()
    senders = [net.hosts[f"tx{i}"] for i in (1, 2, 3)]
    IncastBurst(net.sim, senders, "rx1", burst_bytes=60_000, jitter_s=5e-6, seed=3).fire(
        at=2e-6
    )
    net.sim.run()
    links = {f"{host.name}->": host.uplink for host in net.hosts.values()}
    for switch in net.switches.values():
        for neighbor, link in switch.ports.items():
            links[f"{switch.name}->{neighbor}"] = link
    return {
        "bands": {label: _bands(link.queue) for label, link in links.items()},
        "deliveries": deliveries,
        "switches": {
            name: (s.stats.forwarded, s.stats.trimmed, s.stats.dropped)
            for name, s in net.switches.items()
        },
        "events": net.sim.events_processed,
    }


@pytest.mark.parametrize("burst", [1, 8])
def test_dumbbell_hosts_match_push_then_kick(burst):
    got = _dumbbell(burst, eager=False)
    want = _dumbbell(burst, eager=True)
    # The scenario congests: the bottleneck trims and a host queues up.
    assert want["switches"]["s0"][1] > 0
    host_peaks = [band[4] for label in ("tx1->", "tx2->", "tx3->") for band in want["bands"][label]]
    assert max(host_peaks) > 1_500
    assert want["deliveries"]["rx0"] and want["deliveries"]["rx1"]
    for key in want:
        assert got[key] == want[key], key
