"""Tests for byte-bounded bands and the strict-priority queue over them."""

import ast
from pathlib import Path

import pytest

import repro
from repro.net import PriorityQueue
from repro.packet import Packet


def pkt(size_payload=1458, priority=0):
    return Packet(src="a", dst="b", payload=b"\x00" * size_payload, priority=priority)


def push(q, packet):
    """Store ``packet`` in its band: admission with a busy serializer."""
    return q.admit(packet, False)


class TestByteQueue:
    """One band, seen through a one-band PriorityQueue, its only writer."""

    @staticmethod
    def one_band(capacity_bytes, ecn_threshold_bytes=None):
        q = PriorityQueue([capacity_bytes], ecn_threshold_bytes=ecn_threshold_bytes)
        return q, q.bands[0]

    def test_fifo_order(self):
        q, _ = self.one_band(10_000)
        first, second = pkt(), pkt()
        push(q, first)
        push(q, second)
        assert q.pop() is first
        assert q.pop() is second
        assert q.pop() is None

    def test_capacity_enforced_in_bytes(self):
        q, band = self.one_band(3100)  # fits two 1500 B packets
        assert push(q, pkt())
        assert push(q, pkt())
        assert not push(q, pkt())
        assert band.rejected == 1

    def test_bytes_queued_tracks_wire_size(self):
        q, band = self.one_band(10_000)
        p = pkt(100)
        push(q, p)
        assert band.bytes_queued == p.wire_size
        q.pop()
        assert band.bytes_queued == 0

    def test_fill_fraction(self):
        q, band = self.one_band(3000)
        push(q, pkt(1458))
        assert band.fill == pytest.approx(1500 / 3000)

    def test_peak_tracking(self):
        q, band = self.one_band(10_000)
        push(q, pkt())
        push(q, pkt())
        q.pop()
        assert band.peak_bytes == 3000

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            PriorityQueue([0])

    def test_ecn_marks_above_threshold(self):
        q, band = self.one_band(10_000, ecn_threshold_bytes=2000)
        a, b = pkt(), pkt()
        push(q, a)  # 1500 <= 2000: unmarked
        push(q, b)  # 3000 > 2000: marked
        assert not a.ecn
        assert b.ecn
        assert band.ecn_marked == 1

    def test_no_ecn_when_disabled(self):
        q, _ = self.one_band(10_000)
        p = pkt()
        push(q, p)
        assert not p.ecn


class TestPriorityQueue:
    def test_high_priority_served_first(self):
        q = PriorityQueue(band_capacities=[10_000, 10_000])
        normal = pkt(priority=0)
        urgent = pkt(priority=1)
        push(q, normal)
        push(q, urgent)
        assert q.pop() is urgent
        assert q.pop() is normal

    def test_band_mapping(self):
        q = PriorityQueue(band_capacities=[1000, 1000, 1000])
        assert q.band_for(pkt(priority=0)) == 2
        assert q.band_for(pkt(priority=1)) == 1
        assert q.band_for(pkt(priority=2)) == 0
        assert q.band_for(pkt(priority=99)) == 0  # clamped

    def test_band_overflow_is_per_band(self):
        q = PriorityQueue(band_capacities=[1600, 1600])
        assert push(q, pkt(priority=1))
        assert not push(q, pkt(priority=1))  # express band full
        assert push(q, pkt(priority=0))  # data band still has room

    def test_total_accounting(self):
        q = PriorityQueue(band_capacities=[10_000, 10_000])
        push(q, pkt(priority=1))
        push(q, pkt(priority=0))
        assert len(q) == 2
        assert q.bytes_queued == 3000

    def test_data_band_is_lowest(self):
        q = PriorityQueue(band_capacities=[1000, 5000])
        assert q.data_band().capacity_bytes == 5000

    def test_ecn_only_on_data_band(self):
        q = PriorityQueue(band_capacities=[5000, 5000], ecn_threshold_bytes=100)
        urgent = pkt(priority=1)
        normal = pkt(priority=0)
        push(q, urgent)
        push(q, normal)
        assert not urgent.ecn
        assert normal.ecn

    def test_empty_bands_rejected(self):
        with pytest.raises(ValueError):
            PriorityQueue(band_capacities=[])


class TestAdmitToAnIdleSerializer:
    """``admit(packet, idle=True)``: the packet goes straight to the
    serializer, so the band counts it in and out and holds nothing."""

    def test_counted_through_not_stored(self):
        q = PriorityQueue([10_000, 10_000], ecn_threshold_bytes=1000)
        p = pkt()
        assert q.admit(p, True)
        data = q.data_band()
        assert (data.enqueued, data.dequeued, data.peak_bytes) == (1, 1, 1500)
        assert len(q) == 0 and q.bytes_queued == 0
        assert q.pop() is None
        # The ECN verdict is the one a push and an immediate pop give.
        assert p.ecn and data.ecn_marked == 1

    def test_overflow_is_refused_either_way(self):
        q = PriorityQueue([1000, 1000])
        assert not q.admit(pkt(), True)
        assert not q.admit(pkt(), False)
        assert q.data_band().rejected == 2
        assert q.data_band().enqueued == 0


class TestOneModuleKnowsTheBands:
    """How a band stores its packets and keeps its counters is
    queues.py's business alone: everything else admits and pops."""

    SRC = Path(repro.__file__).parent
    QUEUES = SRC / "net" / "queues.py"
    PRIVATE = {"_items", "_bytes", "_last_band"}
    COUNTERS = {"enqueued", "dequeued", "rejected", "ecn_marked", "peak_bytes"}

    def offenders(self, path):
        found = []
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr in self.PRIVATE:
                found.append(f"{path.name}:{node.lineno}: reads .{node.attr}")
            targets = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            for target in targets:
                if isinstance(target, ast.Attribute) and target.attr in self.COUNTERS:
                    found.append(f"{path.name}:{node.lineno}: writes .{target.attr}")
        return found

    def test_nothing_outside_touches_a_band(self):
        offenders = [
            line
            for path in sorted(self.SRC.rglob("*.py"))
            if path != self.QUEUES
            for line in self.offenders(path)
        ]
        assert offenders == []

    def test_the_check_sees_a_band_write(self, tmp_path):
        sample = tmp_path / "sample.py"
        sample.write_text("band._items.append(p)\nband.enqueued += 1\nq.peak_bytes = 3\n")
        assert len(self.offenders(sample)) == 3
