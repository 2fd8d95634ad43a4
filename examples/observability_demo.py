#!/usr/bin/env python3
"""Observability demo: trace a congested run, then render its report.

One gradient message overloads a shallow trim-enabled dumbbell while
the full observability stack is on:

* a fresh :class:`~repro.obs.MetricsRegistry` reads the labelled
  counters of the switch, links and transport;
* a :class:`~repro.obs.Tracer` streams every gradient-path event
  (packetize -> switch enqueue/trim/drop -> delivery -> decode) to a
  JSONL file;
* :func:`~repro.obs.build_report` turns the trace into the per-run
  summary, and the same file replays later via ``repro-timeline report``.

Run:  python examples/observability_demo.py
"""

import os
import tempfile

import numpy as np

from repro import RHTCodec, SingleLevelTrim, decode_packets, nmse, packetize
from repro.net import QueueMonitor, dumbbell
from repro.obs import (
    MetricsRegistry,
    Tracer,
    build_report,
    read_jsonl,
    set_registry,
    set_tracer,
)
from repro.transport import FixedWindow, Transfer, TrimmingSender

GRADIENT_COORDS = 100_000
BUFFER_BYTES = 20_000


def main() -> None:
    trace_path = os.path.join(tempfile.mkdtemp(prefix="repro-obs-"), "trace.jsonl")

    # Install a fresh registry BEFORE building the network: devices bind
    # their metric series at construction time.
    registry = MetricsRegistry()
    tracer = Tracer(enabled=True, jsonl_path=trace_path)
    prev_registry = set_registry(registry)
    prev_tracer = set_tracer(tracer)
    try:
        net = dumbbell(
            pairs=1,
            edge_rate_bps=10e9,
            bottleneck_rate_bps=1e9,
            trim_policy=SingleLevelTrim(),
            buffer_bytes=BUFFER_BYTES,
        )
        monitor = QueueMonitor(net.sim, period_s=5e-5)
        monitor.watch("s0->s1", net.link_between("s0", "s1"))

        x = np.random.default_rng(5).standard_normal(GRADIENT_COORDS)
        codec = RHTCodec(root_seed=9, row_size=4096)
        sender = TrimmingSender(net.hosts["tx0"], flow_id=7, cc=FixedWindow(256))
        transfer = Transfer(net, sender, packetize(codec.encode(x), "tx0", "rx0", flow_id=7))
        transfer.start()
        net.sim.run(until=5.0)

        decoded = decode_packets(transfer.wire, codec)
        tracer.event("decode.final", nmse=float(nmse(x, decoded)))
        tracer.close()

        print(build_report(read_jsonl(trace_path), registry=registry,
                           title="congested dumbbell, trimming on"))

        stats = net.switches["s0"].stats
        print()
        print("cross-check against SwitchStats on s0:")
        print(f"  forwarded={stats.forwarded} trimmed={stats.trimmed} "
              f"dropped={stats.dropped}")
        print(f"  trim_fraction={stats.trim_fraction:.4f} "
              f"drop_fraction={stats.drop_fraction:.4f} "
              f"bytes_saved={stats.trimmed_bytes_saved}")

        print()
        print("the same counters in the registry (registry.snapshot()):")
        snapshot = registry.snapshot()
        for family in ("forwarded", "trimmed", "trim_bytes_saved"):
            name = f"repro_switch_{family}_total"
            print(f"  {name}{{switch=s0}} = {snapshot[name].get('switch=s0', 0):g}")

        print()
        print(f"trace written to {trace_path}")
        print(f"replay the report any time:  repro-timeline report {trace_path}")
    finally:
        set_registry(prev_registry)
        set_tracer(prev_tracer)


if __name__ == "__main__":
    main()
