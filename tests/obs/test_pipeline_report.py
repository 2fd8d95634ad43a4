"""Acceptance: a congested run's report agrees with SwitchStats.

Runs the paper's core scenario — a gradient message overloading a
shallow trim-enabled dumbbell — under a fresh registry and tracer, and
checks that the trace-derived report and the registry twins agree with
the plain ``SwitchStats`` counters the rest of the repo relies on.
"""

import numpy as np
import pytest

from repro.core import RHTCodec, packetize
from repro.net import QueueMonitor, dumbbell
from repro.obs import (
    MetricsRegistry,
    Tracer,
    build_report,
    set_registry,
    set_tracer,
)
from repro.packet import SingleLevelTrim
from repro.transport import FixedWindow, TrimmingReceiver, TrimmingSender


@pytest.fixture
def fresh_obs():
    registry = MetricsRegistry()
    tracer = Tracer(enabled=True)
    prev_registry = set_registry(registry)
    prev_tracer = set_tracer(tracer)
    try:
        yield registry, tracer
    finally:
        set_registry(prev_registry)
        set_tracer(prev_tracer)


def run_congested(tmp_path):
    """Overload a shallow trim-enabled buffer; return (net, messages, monitor)."""
    net = dumbbell(
        pairs=1,
        edge_rate_bps=10e9,
        bottleneck_rate_bps=1e9,
        trim_policy=SingleLevelTrim(),
        buffer_bytes=20_000,
    )
    monitor = QueueMonitor(net.sim, period_s=5e-5)
    monitor.watch("bottleneck", net.link_between("s0", "s1"))
    x = np.random.default_rng(5).standard_normal(100_000)
    codec = RHTCodec(root_seed=9, row_size=4096)
    sender = TrimmingSender(net.hosts["tx0"], flow_id=7, cc=FixedWindow(256))
    messages = []
    TrimmingReceiver(net.hosts["rx0"], flow_id=7, on_message=messages.append)
    sender.send_message(packetize(codec.encode(x), "tx0", "rx0", flow_id=7))
    net.sim.run(until=5.0)
    assert sender.done
    return net, messages, monitor


class TestPipelineAgreement:
    def test_report_matches_switch_stats(self, fresh_obs, tmp_path):
        registry, tracer = fresh_obs
        net, messages, monitor = run_congested(tmp_path)

        forwarded = sum(s.stats.forwarded for s in net.switches.values())
        trimmed = sum(s.stats.trimmed for s in net.switches.values())
        dropped = sum(s.stats.dropped for s in net.switches.values())
        saved = sum(s.stats.trimmed_bytes_saved for s in net.switches.values())
        assert trimmed > 0

        # Trace events were emitted at exactly the SwitchStats increment
        # points, so the event counts must match the counters.
        events = [e.to_json() for e in tracer.events]
        names = [e["name"] for e in events]
        assert names.count("switch.forward") == forwarded
        assert names.count("switch.trim") == trimmed
        assert names.count("switch.drop") == dropped
        assert (
            sum(
                e["fields"]["bytes_saved"]
                for e in events
                if e["name"] == "switch.trim"
            )
            == saved
        )

        # ... and therefore so must the report's headline numbers.
        report = build_report(events, registry=registry, title="congested dumbbell")
        total = forwarded + trimmed + dropped
        assert f"trim fraction {trimmed / total:.4f}" in report
        expected_fraction = net.switches["s0"].stats.trim_fraction
        assert trimmed / total == pytest.approx(
            sum(s.stats.trimmed for s in net.switches.values())
            / sum(s.stats.enqueues for s in net.switches.values())
        )
        assert 0.0 < expected_fraction < 1.0
        assert "messages delivered: 1" in report
        assert "-- queue depth (bytes) --" in report
        assert "bottleneck" in report
        assert len(messages) == 1

        # Registry twins agree too.
        assert registry.get("repro_switch_forwarded_total").total() == forwarded
        assert registry.get("repro_switch_trimmed_total").total() == trimmed
        assert registry.get("repro_switch_trim_bytes_saved_total").total() == saved
        assert registry.get("repro_transport_messages_total").total() == 1

        # The snapshot the report prints carries the same counters.
        assert registry.snapshot()["repro_switch_trimmed_total"] == {"switch=s0": trimmed}

    def test_jsonl_roundtrip_preserves_report(self, fresh_obs, tmp_path):
        from repro.obs import read_jsonl

        registry, tracer = fresh_obs
        path = str(tmp_path / "trace.jsonl")
        tracer.jsonl_path = path  # the live sink, as `trace_to(path)` arms it
        run_congested(tmp_path)
        tracer.close()
        assert len(read_jsonl(path)) == len(tracer.events)
        live = build_report([e.to_json() for e in tracer.events])
        replayed = build_report(read_jsonl(path))
        assert live == replayed
