"""Time one ``ddp-dumbbell`` gradient transfer against another tree's,
interleaved in one process.

    PYTHONPATH=src python benchmarks/records/pr48/transfer_ab.py OTHER_DIR [PAIRS]

``OTHER_DIR`` holds the other tree's ``repro`` package copied under the
name ``repro_other`` (``cp -r PARENT/src/repro OTHER_DIR/repro_other``;
the package imports itself relatively, so the copy loads beside this
tree's ``repro``).  Each side sends the same 111,332-coordinate RHT
message (``ddp-dumbbell``'s MLP, rows of 4,096) through a
``NetworkChannel`` over the workload's fabric: a fresh ``dumbbell(pairs=4,
10 Gb/s, 40 kB buffers, SingleLevelTrim)`` per transfer with a 3-sender
400 kB incast at the receiver.  The decoded gradients are asserted equal.
``PAIRS`` pairs (default 100) alternate which side runs first; the
process is pinned to one CPU.  Prints each side's median and quartiles
in ms, the median of the per-pair ratios and how many pairs the change
won.
"""

import importlib
import os
import statistics
import sys
import time

import numpy as np

sys.path.insert(0, sys.argv[1])
pairs = int(sys.argv[2]) if len(sys.argv) > 2 else 100
if hasattr(os, "sched_setaffinity"):
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def channel(package):
    """A transfer function of the tree imported as ``package``."""
    core = importlib.import_module(f"{package}.core")
    net = importlib.import_module(f"{package}.net")
    crosstraffic = importlib.import_module(f"{package}.net.crosstraffic")
    packet = importlib.import_module(f"{package}.packet")
    network_channel = importlib.import_module(f"{package}.train.network_channel")

    def network():
        fabric = net.dumbbell(
            pairs=4, edge_rate_bps=10e9, bottleneck_rate_bps=10e9,
            trim_policy=packet.SingleLevelTrim(), buffer_bytes=40_000,
        )
        crosstraffic.IncastBurst(
            fabric.sim, [fabric.hosts[f"tx{i}"] for i in (1, 2, 3)], "rx0",
            burst_bytes=400_000, seed=7,
        ).fire(0.0)
        return fabric

    codec = core.codec_by_name("rht", root_seed=8, row_size=4096)
    return network_channel.NetworkChannel(network, codec, src="tx0", dst="rx0").transfer


change, other = channel("repro"), channel("repro_other")
flat = np.random.default_rng(7).standard_normal(111_332)
assert np.array_equal(change(flat), other(flat))


def sample(transfer):
    start = time.perf_counter()
    transfer(flat)
    return (time.perf_counter() - start) * 1e3


times = {change: [], other: []}
for i in range(pairs):
    for transfer in (other, change) if i % 2 else (change, other):
        times[transfer].append(sample(transfer))
q = {side: statistics.quantiles(times[side], n=4, method="inclusive") for side in times}
ratios = [c / p for p, c in zip(times[other], times[change])]
won = sum(c < p for p, c in zip(times[other], times[change]))
print(
    f"transfer: other {q[other][1]:.2f} [{q[other][0]:.2f}, {q[other][2]:.2f}] ms, "
    f"change {q[change][1]:.2f} [{q[change][0]:.2f}, {q[change][2]:.2f}] ms, "
    f"ratio {statistics.median(ratios):.3f}, change lower in {won} of {pairs}"
)
