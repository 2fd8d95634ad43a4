#!/usr/bin/env python3
"""A gradient message crossing a congested shared fabric.

The transport-level story of the paper on the discrete-event simulator:
a gradient flow shares a dumbbell bottleneck with an incast burst of
background traffic.

* With a **drop-tail switch + go-back-N transport** (the NCCL/RoCE
  baseline), the incast overflows the shallow buffer, packets drop, and
  the flow stalls on retransmissions — the straggler problem.
* With a **trimming switch + trimming-aware transport**, overflow
  packets are trimmed to their 1-bit heads and forwarded in the express
  band; the message completes on time with zero retransmissions and the
  receiver still decodes a usable gradient.

Run:  python examples/congested_fabric.py
"""

import numpy as np

from repro import RHTCodec, SingleLevelTrim, decode_packets, nmse, packetize
from repro.net import IncastBurst, dumbbell
from repro.transport import AIMD, FixedWindow, GoBackNSender, Transfer, TrimmingSender

GRADIENT_COORDS = 200_000
EDGE_GBPS = 10e9
BOTTLENECK_GBPS = 10e9
BUFFER_BYTES = 40_000


def build_network(trim: bool):
    net = dumbbell(
        pairs=4,
        edge_rate_bps=EDGE_GBPS,
        bottleneck_rate_bps=BOTTLENECK_GBPS,
        buffer_bytes=BUFFER_BYTES,
        trim_policy=SingleLevelTrim() if trim else None,
    )
    # Background incast: three senders blast the gradient receiver's
    # side of the bottleneck right as the gradient flow starts.
    burst = IncastBurst(
        net.sim,
        senders=[net.hosts[f"tx{i}"] for i in (1, 2, 3)],
        dst="rx1",
        burst_bytes=400_000,
        seed=1,
    )
    burst.fire(at=0.0)
    return net


def carry(net, sender, gradient, codec):
    """One gradient message over ``net``; returns what decodes, or None."""
    transfer = Transfer(net, sender, packetize(codec.encode(gradient), "tx0", "rx0", flow_id=1))
    transfer.start()
    net.sim.run(until=10.0)
    return decode_packets(transfer.wire, codec) if transfer.wire is not None else None


def run_baseline(gradient, codec):
    net = build_network(trim=False)
    sender = GoBackNSender(
        net.hosts["tx0"], flow_id=1, cc=AIMD(initial_window=64), rto_min=1e-3
    )
    return sender, net, carry(net, sender, gradient, codec)


def run_trimming(gradient, codec):
    net = build_network(trim=True)
    sender = TrimmingSender(net.hosts["tx0"], flow_id=1, cc=FixedWindow(128))
    return sender, net, carry(net, sender, gradient, codec)


def main() -> None:
    rng = np.random.default_rng(0)
    gradient = rng.standard_normal(GRADIENT_COORDS)
    codec = RHTCodec(root_seed=9, row_size=2**15)
    print(f"gradient message: {GRADIENT_COORDS:,} fp32 coords "
          f"(~{GRADIENT_COORDS * 4 / 1e6:.1f} MB) across a shared dumbbell")
    print(f"background: 3-way incast into the same bottleneck\n")

    print(f"{'':>22} | {'drop-tail + GBN':>16} | {'trimming switch':>16}")
    print("-" * 62)
    base, base_net, base_dec = run_baseline(gradient, codec)
    trim, trim_net, trim_dec = run_trimming(gradient, codec)
    rows = [
        ("flow completion time", f"{base.fct_s*1e3:.2f} ms", f"{trim.fct_s*1e3:.2f} ms"),
        ("retransmissions", base.tally.retransmissions, trim.tally.retransmissions),
        ("switch drops", base_net.total_switch_stats()["dropped"],
         trim_net.total_switch_stats()["dropped"]),
        ("switch trims", base_net.total_switch_stats()["trimmed"],
         trim_net.total_switch_stats()["trimmed"]),
        ("gradient NMSE", f"{nmse(gradient, base_dec):.4f}" if base_dec is not None else "lost",
         f"{nmse(gradient, trim_dec):.4f}" if trim_dec is not None else "lost"),
    ]
    for label, base, trim in rows:
        print(f"{label:>22} | {str(base):>16} | {str(trim):>16}")

    print()
    print("the baseline pays for every drop with a go-back-N rewind; the")
    print("trimming fabric converts the same congestion into a slightly")
    print("noisier gradient that needs no retransmission at all.")


if __name__ == "__main__":
    main()
