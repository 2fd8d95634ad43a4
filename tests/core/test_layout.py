"""Tests for packet-layout arithmetic, incl. the paper's worked example."""

import numpy as np
import pytest

from repro.core import (
    TrimmableLayout,
    coords_per_packet,
    magnitude_order,
    paper_worked_example,
)


class TestPaperWorkedExample:
    """Section 2: MTU 1500, 42 B header, P=1 -> n≈365, trim at 87 B, 94.2%."""

    def test_coordinate_count(self):
        layout = paper_worked_example()
        # floor(1458*8 / 32) = 364; the paper rounds to "about 365".
        assert layout.coords in (364, 365)

    def test_trim_threshold_87_bytes(self):
        layout = paper_worked_example()
        # 42 B wire header + ceil(364/8)=46 B of heads ≈ the paper's 87 B
        # (the paper packs 365 coords -> 45.6 -> "45 bytes", 42+45=87).
        assert abs(layout.trim_threshold - 87) <= 1

    def test_compression_ratio(self):
        layout = paper_worked_example()
        assert abs(layout.compression_ratio - 0.942) < 0.002

    def test_payload_trim_fraction(self):
        assert np.isclose(paper_worked_example().trim_fraction_of_payload, 31 / 32)


class TestLayoutGeometry:
    def test_self_describing_header_reduces_coords(self):
        ours = TrimmableLayout()
        paper = paper_worked_example()
        assert ours.coords < paper.coords

    def test_describe_mentions_key_numbers(self):
        text = paper_worked_example().describe()
        assert "MTU 1500" in text
        assert "P=1" in text

    def test_coords_per_packet_multilevel(self):
        # 8-bit heads fit fewer coordinates per packet at the same MTU.
        assert coords_per_packet(1500, 8, 24) == coords_per_packet(1500, 1, 31)
        assert coords_per_packet(1500, 1, 7) > coords_per_packet(1500, 1, 31)

    def test_tiny_mtu_rejected(self):
        with pytest.raises(ValueError):
            coords_per_packet(40)
        with pytest.raises(ValueError, match="cannot fit"):
            coords_per_packet(75, 16, 16)  # 1-byte payload < 4-byte coord


class TestMagnitudeOrder:
    def test_is_a_permutation(self):
        flat = np.random.default_rng(0).standard_normal(1000)
        order = magnitude_order(flat, coords_per_pkt=100)
        assert sorted(order.tolist()) == list(range(1000))

    def test_within_packet_descending_magnitude(self):
        flat = np.random.default_rng(1).standard_normal(500)
        order = magnitude_order(flat, coords_per_pkt=50)
        wire = np.abs(flat[order])
        for p in range(10):
            packet = wire[p * 50 : (p + 1) * 50]
            assert np.all(np.diff(packet) <= 1e-12)

    def test_tail_positions_hold_smallest_coords(self):
        """Trimming the last 20% of every packet discards (close to) the
        globally smallest 20% of coordinates — the MLT observation."""
        flat = np.random.default_rng(2).standard_normal(1000)
        order = magnitude_order(flat, coords_per_pkt=100)
        wire = np.abs(flat[order])
        tails = np.concatenate([wire[p * 100 + 80 : (p + 1) * 100] for p in range(10)])
        threshold = np.quantile(np.abs(flat), 0.2)
        assert np.all(tails <= threshold + 1e-12)

    def test_inverse_order_round_trip(self):
        flat = np.random.default_rng(3).standard_normal(333)
        order = magnitude_order(flat, coords_per_pkt=64)
        wire = flat[order]
        assert np.array_equal(wire[np.argsort(order)], flat)

    def test_uneven_final_packet(self):
        flat = np.random.default_rng(4).standard_normal(105)
        order = magnitude_order(flat, coords_per_pkt=50)
        assert sorted(order.tolist()) == list(range(105))

    def test_rejects_bad_packet_size(self):
        with pytest.raises(ValueError):
            magnitude_order(np.ones(10), 0)
