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
* the same transfer with its bottleneck cable losing 10 % of the data
  packets (``Network.set_impairment``), so the sender's timer fires and
  gradient packets are sent up to four times;
* both transfers run under one enabled tracer: its event JSONL with
  the host clock readings (``wall_time``, and ``duration_s`` on
  wall-clock stages) taken out, and its span JSONL, which carries
  modeled time only.  The untraced and the traced turnaround of a
  transport are separate paths, so each has its own pin;
* two ``repro-faults run`` logs at seed 7: ``flaky-link`` (a corrupting,
  duplicating bottleneck; its timers are armed on every ACK and never
  fire) and ``ack-storm-loss --transport pull``, where lost ACKs make
  RTO timers fire for real, 35 times.

The untraced digests were taken before overflow moved into
``Switch.receive``'s inline path and before sender timers were postponed
instead of re-posted; both changes promised the same bytes.  The traced
digests were taken before the transports' one-pass ACK turnaround.
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
from repro.obs.trace import Tracer, set_tracer
from repro.packet import SingleLevelTrim
from repro.train.network_channel import NetworkChannel

#: sha256 of the canonical JSON of :func:`_dumbbell_transfer`'s record.
DUMBBELL_DIGEST = "441b509c1376015343def8edb89766e832d49952921fd5955abb5100d2f5090e"
#: The same for ``_dumbbell_transfer(drop_prob=LOSSY_DROP_PROB)``.
LOSSY_DROP_PROB = 0.1
LOSSY_DIGEST = "e415e82914ea87a46dd1bbee3c4afc85a34591aae9bc9877c06afff502f50980"
#: sha256 of the traced transfers' event JSONL (host clocks taken out)
#: and of its span JSONL, and how many lines each holds.
TRACED_DIGESTS = {
    "events": ("3782c892e5cd13f658b858e44f086abd98cb68238204adb3e315d0c743bab825", 4736),
    "spans": ("3697c47a64419ce86f17cc3d42d0ea5d61cccee6f4814fbc19fcd7aece4a0797", 686),
}
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


def _dumbbell_transfer(drop_prob=0.0):
    """One gradient transfer through the ``ddp-dumbbell`` fabric.

    ``drop_prob`` impairs the bottleneck cable (``Network.set_impairment``)
    so that gradient packets are lost and retransmitted.
    """
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
        if drop_prob:
            net.set_impairment("s0", "s1", drop_prob=drop_prob)
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


def _without_host_clock(raw: bytes) -> bytes:
    lines = []
    for line in raw.decode("utf-8").splitlines():
        record = json.loads(line)
        record.pop("wall_time", None)
        record.pop("duration_s", None)
        lines.append(json.dumps(record, sort_keys=True) + "\n")
    return "".join(lines).encode("utf-8")


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


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """The clean and the lossy transfer under one enabled tracer:
    ``{"events": ..., "spans": ...}`` JSONL bytes, the events without
    host clocks."""
    out = tmp_path_factory.mktemp("traced-transfer")
    tracer = Tracer(
        enabled=True,
        jsonl_path=str(out / "events.jsonl"),
        spans_path=str(out / "spans.jsonl"),
    )
    previous = set_tracer(tracer)
    try:
        _dumbbell_transfer()
        _dumbbell_transfer(drop_prob=LOSSY_DROP_PROB)
    finally:
        set_tracer(previous)
        tracer.close()
    return {
        "events": _without_host_clock((out / "events.jsonl").read_bytes()),
        "spans": (out / "spans.jsonl").read_bytes(),
    }


def test_the_lossy_transfer_matches_the_digest():
    record = _dumbbell_transfer(drop_prob=LOSSY_DROP_PROB)
    assert _digest(record) == LOSSY_DIGEST


def test_the_traced_transfers_reach_the_traced_turnaround(traced):
    # Packet spans acked and superseded, and retransmissions past the
    # first attempt: the branches the untraced digests do not see.
    spans = [json.loads(line) for line in traced["spans"].splitlines()]
    packets = [s["attrs"] for s in spans if s["name"] == "transport.packet"]
    assert sum(a["acked"] for a in packets) > 600
    assert sum(a.get("superseded", False) for a in packets) > 10
    events = [json.loads(line) for line in traced["events"].splitlines()]
    names = {e["name"] for e in events}
    assert {"switch.trim", "switch.drop", "link.drop", "transport.deliver"} <= names
    attempts = {e["fields"]["attempt"] for e in events if e["name"] == "transport.retransmit"}
    assert attempts >= {1, 2, 3}


@pytest.mark.parametrize("stream", sorted(TRACED_DIGESTS))
def test_traced_transfer_matches_the_digest(traced, stream):
    digest, lines = TRACED_DIGESTS[stream]
    raw = traced[stream]
    assert len(raw.splitlines()) == lines
    assert hashlib.sha256(raw).hexdigest() == digest, stream


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
