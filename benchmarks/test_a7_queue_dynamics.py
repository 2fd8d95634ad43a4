"""A7 — queue dynamics under incast: drop-tail vs trimming switch.

The paper's core transport narrative (§1): when an incast fills a
shallow buffer, a trimming switch converts would-be drops into tiny
express-band headers, so the queue never wedges and no retransmission
storm follows.  We drive the same incast against both switch types and
record the bottleneck queue with :class:`repro.net.QueueMonitor`.
"""

import numpy as np

from repro.bench import ascii_chart, emit, format_table
from repro.core import RHTCodec, packetize
from repro.net import IncastBurst, QueueMonitor, dumbbell
from repro.packet import SingleLevelTrim
from repro.transport import FixedWindow, Transfer, TrimmingSender

BUFFER = 25_000


def run_one(trim: bool):
    net = dumbbell(
        pairs=4,
        edge_rate_bps=10e9,
        bottleneck_rate_bps=10e9,
        buffer_bytes=BUFFER,
        trim_policy=SingleLevelTrim() if trim else None,
    )
    monitor = QueueMonitor(net.sim, period_s=2e-6)
    monitor.watch("bottleneck", net.link_between("s0", "s1"))
    IncastBurst(
        net.sim,
        senders=[net.hosts[f"tx{i}"] for i in (1, 2, 3)],
        dst="rx1",
        burst_bytes=300_000,
        seed=1,
    ).fire(at=0.0)
    codec = RHTCodec(root_seed=1, row_size=4096)
    x = np.random.default_rng(0).standard_normal(100_000)
    sender = TrimmingSender(net.hosts["tx0"], flow_id=1, cc=FixedWindow(128))
    Transfer(net, sender, packetize(codec.encode(x), "tx0", "rx0", flow_id=1)).start()
    net.sim.run(until=30.0)
    stats = net.total_switch_stats()
    return monitor, stats, sender


def run_a7():
    results = {}
    for label, trim in [("drop-tail", False), ("trimming", True)]:
        monitor, stats, sender = run_one(trim)
        results[label] = dict(
            series=monitor.series("bottleneck"),
            peak=monitor.peak_bytes("bottleneck"),
            congested_frac=monitor.time_above("bottleneck", int(BUFFER * 0.9)),
            fct=sender.fct_s,
            drops=stats["dropped"],
            trims=stats["trimmed"],
            done=sender.done,
        )
    return results


def test_a7_queue_dynamics(benchmark):
    results = benchmark.pedantic(run_a7, rounds=1, iterations=1)
    emit("\n[A7] bottleneck queue depth during a 3:1 incast + gradient flow")
    emit(ascii_chart(
        {label: r["series"][:250] for label, r in results.items()},
        x_label="seconds",
        y_label="queue bytes",
    ))
    rows = [
        [
            label,
            r["peak"],
            f"{r['congested_frac']:.0%}",
            f"{r['fct']*1e3:.2f}" if r["fct"] != float("inf") else "stalled",
            r["drops"],
            r["trims"],
        ]
        for label, r in results.items()
    ]
    emit(format_table(
        ["switch", "peak queue B", "time >90% full", "gradient FCT ms",
         "drops", "trims"],
        rows,
    ))
    drop_tail = results["drop-tail"]
    trimming = results["trimming"]
    # The trimming switch converts drops into trims...
    assert trimming["trims"] > 0
    assert trimming["drops"] < drop_tail["drops"]
    # ...and the gradient flow finishes without stalling.
    assert trimming["done"]
    assert trimming["fct"] <= drop_tail["fct"] * 1.2
