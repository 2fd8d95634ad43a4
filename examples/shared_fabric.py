#!/usr/bin/env python3
"""Two training jobs sharing an ECMP leaf-spine fabric (the §1 setting).

The paper's motivating scenarios are shared fabrics: training jobs whose
GPUs are scattered across racks, colliding with each other and with
background bursts.  This example builds a 2-leaf/2-spine Clos with
per-flow ECMP and trimming switches, runs two jobs' gradient exchanges
*plus* an incast burst simultaneously over NDP-style pull transports,
and reports every flow's completion time, trim fraction, and decode
quality.

Run:  python examples/shared_fabric.py
"""

import numpy as np

from repro import RHTCodec, SingleLevelTrim, decode_packets, nmse, packetize
from repro.net import IncastBurst, QueueMonitor, leaf_spine
from repro.transport import PullSender, Transfer

COORDS_PER_JOB = 150_000


def main() -> None:
    net = leaf_spine(
        leaves=2,
        spines=2,
        hosts_per_leaf=4,
        host_rate_bps=10e9,
        fabric_rate_bps=10e9,
        trim_policy=SingleLevelTrim(),
        buffer_bytes=30_000,
    )
    net.build_routes(ecmp=True)
    monitor = QueueMonitor(net.sim, period_s=5e-6)
    monitor.watch("leaf0->spine0", net.link_between("leaf0", "spine0"))
    monitor.watch("leaf0->spine1", net.link_between("leaf0", "spine1"))

    # Two jobs exchange gradients across the fabric; background incast
    # slams one of the receivers' leaves at the same instant.
    jobs = {
        "job-A": ("h0_0", "h1_0", 11),
        "job-B": ("h0_1", "h1_1", 22),
    }
    IncastBurst(
        net.sim,
        senders=[net.hosts["h0_2"], net.hosts["h0_3"]],
        dst="h1_2",
        burst_bytes=300_000,
        seed=5,
    ).fire(at=0.0)

    codec = RHTCodec(root_seed=13, row_size=2**15)
    gradients, transfers = {}, {}
    for name, (src, dst, flow_id) in jobs.items():
        gradient = np.random.default_rng(flow_id).standard_normal(COORDS_PER_JOB)
        gradients[name] = gradient
        sender = PullSender(net.hosts[src], flow_id=flow_id, initial_window=32)
        transfers[name] = Transfer(
            net, sender, packetize(codec.encode(gradient), src, dst, flow_id=flow_id)
        )
        transfers[name].start()

    net.sim.run(until=10.0)

    print("2-leaf/2-spine Clos, per-flow ECMP, trimming switches, NDP pulls")
    print(f"two {COORDS_PER_JOB:,}-coordinate gradient jobs + 2:1 incast\n")
    print(f"{'flow':>8} | {'FCT ms':>7} | {'retx':>4} | {'trimmed':>7} | NMSE")
    print("-" * 48)
    for name, transfer in transfers.items():
        sender = transfer.sender
        error = nmse(gradients[name], decode_packets(transfer.wire, codec))
        print(
            f"{name:>8} | {sender.fct_s*1e3:>7.3f} | {sender.tally.retransmissions:>4} "
            f"| {sender.tally.trims_reported:>7} | {error:.4f}"
        )

    stats = net.total_switch_stats()
    print()
    print(f"fabric totals: {stats['forwarded']} forwarded, "
          f"{stats['trimmed']} trimmed, {stats['dropped']} dropped")
    for label in ("leaf0->spine0", "leaf0->spine1"):
        print(f"  {label}: peak queue {monitor.peak_bytes(label):,} B "
              f"(ECMP spreads the two jobs across spines)")
    print()
    print("both jobs finish with zero retransmissions; congestion cost is a")
    print("bounded, decodable gradient error instead of straggler stalls.")


if __name__ == "__main__":
    main()
