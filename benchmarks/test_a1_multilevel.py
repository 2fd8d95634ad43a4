"""A1 — multi-level trimming (Section 5.1, future work implemented).

Two questions from the paper:
1. Does the tiered 1/8/32-bit encoding decode at the advertised quality
   at each depth (trim to ~25 % keeps 8-bit quality, ~3 % keeps 1-bit)?
2. In a closed loop — a congested switch choosing between trim depths —
   is it better to trim more packets shallowly (8-bit) or fewer packets
   deeply (1-bit)?  We run the same overload against three policies and
   report delivered bytes, reconstruction NMSE, and drops.
"""

import numpy as np

from repro.bench import emit, format_table
from repro.core import MultiLevelCodec, nmse
from repro.net import dumbbell
from repro.packet import MultiLevelTrim
from repro.transport import FixedWindow, Transfer, TrimmingSender

NUM_COORDS = 2**15
ROW_SIZE = 4096


def _array_level_rows():
    codec = MultiLevelCodec(root_seed=1, row_size=ROW_SIZE)
    x = np.random.default_rng(0).standard_normal(NUM_COORDS)
    enc = codec.encode(x)
    rows = []
    for bits, label in [(32, "untrimmed (32b)"), (8, "trim to ~25% (8b)"), (1, "trim to ~3% (1b)")]:
        levels = np.full(enc.length, bits, dtype=np.int64)
        rows.append([label, f"{nmse(x, codec.decode(enc, levels)):.2e}"])
    return rows


def _closed_loop_rows():
    policies = {
        "shallow only (8b)": MultiLevelTrim([8], [0.0]),
        "deep only (1b)": MultiLevelTrim([1], [0.0]),
        "adaptive (8b->1b)": MultiLevelTrim([8, 1], [0.0, 0.97]),
    }
    rows = []
    for label, policy in policies.items():
        net = dumbbell(
            pairs=1,
            edge_rate_bps=40e9,
            bottleneck_rate_bps=1e9,
            trim_policy=policy,
            buffer_bytes=15_000,
        )
        codec = MultiLevelCodec(root_seed=2, row_size=ROW_SIZE)
        x = np.random.default_rng(1).standard_normal(NUM_COORDS)
        enc = codec.encode(x)
        sender = TrimmingSender(net.hosts["tx0"], flow_id=1, cc=FixedWindow(512))
        transfer = Transfer(net, sender, codec.packetize(enc, "tx0", "rx0", flow_id=1))
        transfer.start()
        net.sim.run(until=30.0)
        stats = net.total_switch_stats()
        if transfer.wire is not None:
            back, levels = codec.depacketize(transfer.wire)
            err = nmse(x, codec.decode(back, levels))
            depth_counts = {b: int((levels == b).sum()) for b in (1, 8, 32)}
        else:
            err, depth_counts = float("nan"), {}
        rows.append(
            [
                label,
                f"{sender.fct_s*1e3:.2f}",
                stats["trimmed"],
                stats["dropped"],
                f"{err:.4f}",
                str(depth_counts),
            ]
        )
    return rows


def run_a1():
    return _array_level_rows(), _closed_loop_rows()


def test_a1_multilevel(benchmark):
    array_rows, loop_rows = benchmark.pedantic(run_a1, rounds=1, iterations=1)
    emit("\n" + format_table(
        ["depth", "NMSE"], array_rows, title="[A1a] tiered decode quality"
    ))
    emit("\n" + format_table(
        ["switch policy", "FCT ms", "trimmed", "dropped", "message NMSE", "coords by depth"],
        loop_rows,
        title="[A1b] closed-loop trim-depth policies under overload",
    ))
    quality = {row[0]: float(row[1]) for row in array_rows}
    assert quality["untrimmed (32b)"] < quality["trim to ~25% (8b)"] < quality["trim to ~3% (1b)"]
    assert quality["trim to ~25% (8b)"] < 1e-3
    # Closed loop — the Section 5.1 tradeoff in action: shallow 8-bit
    # trims give far better reconstruction but, being ~4x larger, can
    # still overflow the express band under extreme overload (drops!).
    # The deep and adaptive policies must complete with zero drops.
    by_policy = {row[0]: row for row in loop_rows}
    assert by_policy["deep only (1b)"][3] == 0
    assert by_policy["adaptive (8b->1b)"][3] == 0
    shallow_err = float(by_policy["shallow only (8b)"][4])
    deep_err = float(by_policy["deep only (1b)"][4])
    adaptive_err = float(by_policy["adaptive (8b->1b)"][4])
    assert shallow_err < deep_err  # shallow keeps more information
    assert adaptive_err <= deep_err + 1e-9  # adaptive never worse than deep
