#!/usr/bin/env python3
"""Multi-level trimming (Section 5.1): one packet, three usable depths.

The tiered 1/8/32-bit encoding lets a switch choose *how hard* to trim
according to congestion: keep ~25% of the packet (8-bit quality) under
mild pressure, or ~3% (1-bit sign + DRIVE scale) under heavy pressure.
This example packetizes a gradient with the multi-level codec, cuts
different packets to different depths with ``Packet.trim(bits)``, and
decodes the mix, all through the same calls every codec uses.

Run:  python examples/multilevel_trimming.py
"""

import numpy as np

from repro import MultiLevelCodec, decode_packets, nmse, packetize


def main() -> None:
    rng = np.random.default_rng(0)
    gradient = rng.standard_normal(2**15)
    codec = MultiLevelCodec(root_seed=5, row_size=4096)
    encoded = codec.encode(gradient, epoch=1, message_id=1)
    packets = packetize(encoded, src="gpu0", dst="gpu1")
    data = packets[1:]
    full_size = data[0].wire_size
    print(f"gradient: {gradient.size:,} coords -> {len(data)} data packets "
          f"of {full_size} B each\n")

    print("per-depth packet sizes (Section 5.1's '25% or 3%'):")
    for bits in (32, 8, 1):
        pkt = data[0] if bits == 32 else data[0].trim(bits)
        print(f"  keep {bits:>2} bits/coord -> {pkt.wire_size:>5} B "
              f"({pkt.wire_size / full_size:.1%} of full)")
    print()

    print(f"{'scenario':>34} | bytes on wire | NMSE")
    print("-" * 66)
    scenarios = {
        "no congestion (untrimmed)": [32] * len(data),
        "mild congestion (all -> 8 bits)": [8] * len(data),
        "heavy congestion (all -> 1 bit)": [1] * len(data),
        "mixed (random 32/8/1 per packet)": list(
            rng.choice([32, 8, 1], size=len(data), p=[0.4, 0.4, 0.2])
        ),
    }
    for label, depths in scenarios.items():
        wire = [packets[0]]
        for pkt, bits in zip(data, depths):
            wire.append(pkt if bits == 32 else pkt.trim(int(bits)))
        decoded = decode_packets(wire, codec)
        total_bytes = sum(p.wire_size for p in wire)
        print(f"{label:>34} | {total_bytes:>13,} | {nmse(gradient, decoded):.5f}")

    print()
    print("an 8-bit trim already costs almost nothing in accuracy; the")
    print("1-bit depth is the emergency brake for severe congestion.")


if __name__ == "__main__":
    main()
