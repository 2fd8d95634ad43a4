"""Golden digests of the congested path: trim, drop, ACK every packet, RTO.

Two runs whose every byte depends on what a switch does when a queue
overflows and on when a sender's retransmission timer fires:

* one :class:`NetworkChannel` transfer of the ``ddp-dumbbell`` shape —
  a 4-pair dumbbell at 10 Gb/s with 40 kB ``SingleLevelTrim`` buffers
  and a 3 x 400 kB incast at the receiver, so about half the gradient
  packets arrive trimmed and the filler is dropped.  The digest covers
  every host's delivery log (time, flow, seq, trimmed, ecn, wire size),
  every ``SwitchStats``, every egress band's counters, the event count
  and the flow completion time;
* two ``repro-faults run`` logs at seed 7: ``flaky-link`` (a corrupting,
  duplicating bottleneck; its timers are armed on every ACK and never
  fire) and ``ack-storm-loss --transport pull``, where lost ACKs make
  RTO timers fire for real, 35 times.

The digests were taken before overflow moved into ``Switch.receive``'s
inline path and before sender timers were postponed instead of
re-posted; both changes promised the same bytes.
"""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from repro.core import codec_by_name
from repro.faults.cli import main as faults_main
from repro.net.crosstraffic import IncastBurst
from repro.net.topology import dumbbell
from repro.obs.metrics import MetricsRegistry, get_registry, set_registry
from repro.packet import SingleLevelTrim
from repro.train.network_channel import NetworkChannel

#: sha256 of the canonical JSON of :func:`_dumbbell_transfer`'s record.
DUMBBELL_DIGEST = "441b509c1376015343def8edb89766e832d49952921fd5955abb5100d2f5090e"
#: (preset, transport) -> (sha256 of the JSONL ``repro-faults run PRESET
#: --seed 7 --transport TRANSPORT`` writes, RTO expiries in that run).
FAULT_RUNS = {
    ("flaky-link", "trimming"): (
        "b3fc5d0297496bda623f3aa9d2221b8631def078139e501198cd8911f1f8adfa",
        0,
    ),
    ("ack-storm-loss", "pull"): (
        "96247feec153596f4eb0c378db1ba3ed93f5a59d4e76d762c69180a2058b30ac",
        35,
    ),
}


def _logged(host, log):
    """Wrap ``host.receive`` so every arrival lands in ``log`` first."""
    receive = host.receive

    def logging_receive(packet, ingress=None):
        log.append(
            (
                host.sim.now,
                packet.flow_id,
                packet.seq,
                packet.is_trimmed,
                packet.ecn,
                packet.wire_size,
            )
        )
        receive(packet, ingress)

    host.receive = logging_receive


def _dumbbell_transfer():
    """One gradient transfer through the ``ddp-dumbbell`` fabric."""
    built = []

    def network():
        net = dumbbell(
            pairs=4,
            edge_rate_bps=10e9,
            bottleneck_rate_bps=10e9,
            trim_policy=SingleLevelTrim(),
            buffer_bytes=40_000,
        )
        IncastBurst(
            net.sim,
            [net.hosts[f"tx{i}"] for i in (1, 2, 3)],
            "rx0",
            burst_bytes=400_000,
            seed=7,
        ).fire(0.0)
        built.append(net)
        return net

    channel = NetworkChannel(
        network, codec_by_name("rht", root_seed=8, row_size=4096), src="tx0", dst="rx0"
    )
    deliveries = {}
    factory = channel.network_factory

    def logged_network():
        net = factory()
        for name, host in net.hosts.items():
            _logged(host, deliveries.setdefault(name, []))
        return net

    channel.network_factory = logged_network
    gradient = np.random.default_rng(7).standard_normal(111_460)
    decoded = channel.transfer(gradient)
    (net,) = built
    bands = {}
    for switch in net.switches.values():
        for neighbor, link in switch.ports.items():
            bands[f"{switch.name}->{neighbor}"] = [
                (b.enqueued, b.dequeued, b.rejected, b.ecn_marked, b.peak_bytes)
                for b in link.queue.bands
            ]
    return {
        "deliveries": deliveries,
        "switches": {
            name: dataclasses.asdict(switch.stats)
            for name, switch in sorted(net.switches.items())
        },
        "bands": bands,
        "events": net.sim.events_processed,
        "fct_s": channel.fcts[-1],
        "decoded": hashlib.sha256(decoded.tobytes()).hexdigest(),
    }


def _digest(record) -> str:
    text = json.dumps(record, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def transfer():
    return _dumbbell_transfer()


def test_the_transfer_is_congested(transfer):
    # The digest is only worth something if the run reaches the paths it
    # pins: trims, overflow drops, band rejections, trimmed heads landing.
    stats = transfer["switches"].values()
    assert sum(s["trimmed"] for s in stats) > 100
    assert sum(s["dropped"] for s in stats) > 100
    assert any(d[3] for d in transfer["deliveries"]["rx0"])
    assert any(b[2] for per_port in transfer["bands"].values() for b in per_port)


def test_dumbbell_transfer_matches_the_digest(transfer):
    assert _digest(transfer) == DUMBBELL_DIGEST


@pytest.mark.parametrize("preset,transport", sorted(FAULT_RUNS))
def test_fault_run_matches_the_digest(tmp_path, preset, transport):
    digest, expiries = FAULT_RUNS[preset, transport]
    out = tmp_path / f"{preset}.jsonl"
    argv = ["run", preset, "--seed", "7", "--transport", transport, "--out", str(out)]
    previous = set_registry(MetricsRegistry())
    try:
        assert faults_main(argv) == 0
        timeouts = get_registry().get("repro_transport_timeouts_total").total()
    finally:
        set_registry(previous)
    assert timeouts == expiries
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
