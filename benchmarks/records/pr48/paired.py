"""Time ``depacketize_many`` against another tree's, paired in one process.

    PYTHONPATH=src python benchmarks/records/pr48/paired.py PARENT_SRC [PAIRS]

``PARENT_SRC`` is the ``src`` directory of the tree to compare with; its
``repro/core/packetizer.py`` is loaded as a second module of this
``repro`` package (``PARENT_SRC`` = this tree's ``src`` is the A/A
control).  Three runs, each timed in ``PAIRS`` pairs (default 40) whose
order alternates: a one-set call on a cluster job's 13-packet message
(3,224 coordinates, RHT, 1,024-coordinate rows; 200 calls a sample), a
one-set call on a 316-packet message (111,712 coordinates, RHT,
512-coordinate rows; 20 calls), and a 64-message wave of the 13-packet
kind (20 calls).  Both trees' messages are asserted equal.  Prints
microseconds a call: each side's median and quartiles, the median of the
per-pair ratios, and how many pairs the second tree won.
"""

import importlib.util
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from repro.core import RHTCodec, packetize
from repro.core import packetizer as change

spec = importlib.util.spec_from_file_location(
    "repro.core.compared_packetizer", Path(sys.argv[1]) / "repro/core/packetizer.py"
)
parent = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
spec.loader.exec_module(parent)
pairs = int(sys.argv[2]) if len(sys.argv) > 2 else 40

rng = np.random.default_rng(3)
small = RHTCodec(row_size=1024, root_seed=1)
wires = [
    packetize(small.encode(g, epoch=0, message_id=i), "s", "d")
    for i, g in enumerate(rng.standard_normal((64, 3224)))
]
large = RHTCodec(row_size=512, root_seed=1)
big = packetize(large.encode(rng.standard_normal(111_712), epoch=0, message_id=0), "s", "d")
assert (len(wires[0]), len(big)) == (13, 316)
runs = {
    "one set, 13 packets": (lambda m: m.depacketize_many([wires[0]]), 200),
    "one set, 316 packets": (lambda m: m.depacketize_many([big]), 20),
    "64 sets, 13 packets each": (lambda m: m.depacketize_many(wires), 20),
}


def sample(run, module, calls):
    start = time.perf_counter()
    for _ in range(calls):
        run(module)
    return (time.perf_counter() - start) / calls * 1e6


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"{q2:8.1f} [{q1:.1f}, {q3:.1f}]"


for name, (run, calls) in runs.items():
    for a, b in zip(run(parent), run(change)):
        for plane in ("heads", "tails", "trimmed", "missing"):
            assert np.array_equal(getattr(a, plane), getattr(b, plane))
    for module in (parent, change):
        sample(run, module, calls)  # warm
    times = {parent: [], change: []}
    for i in range(pairs):
        for module in (parent, change) if i % 2 else (change, parent):
            times[module].append(sample(run, module, calls))
    ratios = [c / p for p, c in zip(times[parent], times[change])]
    won = sum(c < p for p, c in zip(times[parent], times[change]))
    print(
        f"{name}: parent {quartiles(times[parent])} us, change {quartiles(times[change])} us, "
        f"ratio {statistics.median(ratios):.3f}, change lower in {won} of {pairs}"
    )
