"""Packet-layout arithmetic (paper Section 2).

Answers the questions of Figure 2 and the worked example: how many
coordinates fit in an MTU, where the trim threshold sits, and what
compression ratio trimming achieves.  Also implements the
magnitude-ordered layout the paper discusses first (MLT-style: largest
coordinates nearest the header, so plain trimming discards the smallest
20 %) before introducing the head/tail split.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..packet.header import GRADIENT_HEADER_BYTES, WIRE_HEADER_BYTES

__all__ = [
    "TrimmableLayout",
    "paper_worked_example",
    "magnitude_order",
    "coords_per_packet",
]


def coords_per_packet(
    mtu: int = 1500,
    head_bits: int = 1,
    tail_bits: int = 31,
    app_header_bytes: int = GRADIENT_HEADER_BYTES,
) -> int:
    """Coordinates that fit one packet under the head/tail layout."""
    payload_bits = (mtu - WIRE_HEADER_BYTES - app_header_bytes) * 8
    if payload_bits <= 0:
        raise ValueError(f"mtu {mtu} leaves no payload")
    n = payload_bits // (head_bits + tail_bits)
    if n <= 0:
        raise ValueError(f"mtu {mtu} cannot fit a single {head_bits + tail_bits}-bit coord")
    return n


@dataclass(frozen=True)
class TrimmableLayout:
    """Static layout facts for one (mtu, P, Q, header) configuration.

    Attributes:
        mtu: full packet size in bytes.
        head_bits: bits per coordinate kept after trimming (``P``).
        tail_bits: refinement bits per coordinate (``Q``).
        app_header_bytes: application (gradient) header size; 0 reproduces
            the paper's minimal-header arithmetic.
    """

    mtu: int = 1500
    head_bits: int = 1
    tail_bits: int = 31
    app_header_bytes: int = GRADIENT_HEADER_BYTES

    @property
    def coords(self) -> int:
        """Coordinates per packet (``n``)."""
        return coords_per_packet(
            self.mtu, self.head_bits, self.tail_bits, self.app_header_bytes
        )

    @property
    def heads_bytes(self) -> int:
        """Bytes of packed heads (``ceil(P·n/8)``)."""
        return -(-self.head_bits * self.coords // 8)

    @property
    def trim_threshold(self) -> int:
        """Bytes a switch keeps when trimming (wire hdr + app hdr + heads)."""
        return WIRE_HEADER_BYTES + self.app_header_bytes + self.heads_bytes

    @property
    def compression_ratio(self) -> float:
        """Fraction of the packet removed by trimming, ``1 - trimmed/full``."""
        return 1.0 - self.trim_threshold / self.mtu

    @property
    def trim_fraction_of_payload(self) -> float:
        """Approximate payload shrink ``Q / (P + Q)`` from the paper."""
        return self.tail_bits / (self.head_bits + self.tail_bits)

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (
            f"MTU {self.mtu} B, P={self.head_bits}, Q={self.tail_bits}: "
            f"n={self.coords} coords, trim at {self.trim_threshold} B, "
            f"compression {self.compression_ratio:.1%}"
        )


def paper_worked_example() -> TrimmableLayout:
    """The exact Section 2 arithmetic: 1500 B MTU, 42 B header, P=1.

    The paper's example counts only the Ethernet/IP/UDP header (no
    application header), packs n≈365 coordinates, trims to 87 bytes and
    reports a 94.2 % compression ratio.
    """
    return TrimmableLayout(mtu=1500, head_bits=1, tail_bits=31, app_header_bytes=0)


def magnitude_order(flat: np.ndarray, coords_per_pkt: int) -> np.ndarray:
    """Permutation implementing the Section 2 magnitude-aware layout.

    Sorts coordinates by descending magnitude and deals them round-robin
    into packets, so each packet holds its largest coordinates first:
    position ``k`` within every packet has globally-larger magnitude than
    position ``k+1`` of any packet.  Plain (non head/tail) trimming then
    discards the globally smallest coordinates first, as MLT observes the
    training can tolerate.

    Returns an index array ``order`` such that ``flat[order]`` is the
    on-wire coordinate sequence.
    """
    flat = np.asarray(flat).reshape(-1)
    n = flat.size
    if coords_per_pkt <= 0:
        raise ValueError("coords_per_pkt must be positive")
    by_magnitude = np.argsort(-np.abs(flat), kind="stable")
    num_packets = -(-n // coords_per_pkt)
    # Deal sorted indices row-major into a (depth, num_packets) grid, then
    # read packet-by-packet (column-major): packet p gets ranks
    # p, p+num_packets, p+2*num_packets, ... in decreasing magnitude.
    order = np.empty(n, dtype=np.int64)
    position = 0
    for packet in range(num_packets):
        ranks = np.arange(packet, n, num_packets)
        order[position : position + ranks.size] = by_magnitude[ranks]
        position += ranks.size
    return order
