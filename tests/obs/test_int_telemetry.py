"""INT band: wire format, packet/packetizer integration, collector."""

import json

import numpy as np
import pytest

from repro.core import SignMagnitudeCodec, packetize
from repro.obs.int_telemetry import (
    DECISION_DROP,
    DECISION_FORWARD,
    DECISION_TRIM,
    DEFAULT_INT_CAPACITY,
    INT_HEADER_BYTES,
    INT_RECORD_BYTES,
    INT_VERSION,
    INTCollector,
    INTExtension,
    INTHopRecord,
    REASON_BUFFER_OVERFLOW,
    REASON_NONE,
    decision_name,
    disable_int,
    enable_int,
    hop_id,
    hop_name,
    int_capacity,
    reason_name,
)
from repro.packet import FLAG_INT, GRADIENT_HEADER_BYTES, GradientHeader


@pytest.fixture
def int_enabled():
    enable_int()
    yield
    disable_int()


def gradient(n=3000, seed=0):
    return np.random.default_rng(seed).standard_normal(n).astype(np.float64)


def grad_packets(n=3000, **kwargs):
    enc = SignMagnitudeCodec().encode(gradient(n))
    return packetize(enc, "h0", "h1", **kwargs)


def record(hop=1, decision=DECISION_FORWARD, t=0.5, depth=1234, fill=250):
    return INTHopRecord(
        hop=hop,
        decision=decision,
        reason=REASON_NONE,
        sim_time=t,
        queue_depth_bytes=depth,
        fill_permille=fill,
    )


class TestWireFormat:
    def test_record_roundtrip(self):
        rec = record(hop=7, decision=DECISION_TRIM, t=1.25, depth=9999, fill=998)
        data = rec.to_bytes()
        assert len(data) == INT_RECORD_BYTES
        assert INTHopRecord.from_bytes(data) == rec

    def test_extension_roundtrip_with_padding(self):
        ext = INTExtension(capacity=4)
        ext.stamp(1, DECISION_FORWARD, REASON_NONE, 0.1, queue_depth_bytes=10)
        ext.stamp(2, DECISION_TRIM, REASON_BUFFER_OVERFLOW, 0.2, fill_permille=990)
        data = ext.to_bytes()
        # Header plus every slot, used or not.
        assert len(data) == INT_HEADER_BYTES + 4 * INT_RECORD_BYTES
        parsed = INTExtension.from_bytes(data)
        assert parsed == ext
        assert parsed.records[1].reason == REASON_BUFFER_OVERFLOW

    def test_wire_bytes_fixed_regardless_of_count(self):
        ext = INTExtension(capacity=8)
        before = ext.wire_bytes
        for i in range(5):
            ext.stamp(i, DECISION_FORWARD, REASON_NONE, float(i))
        assert ext.wire_bytes == before
        assert len(ext.to_bytes()) == before

    def test_overflow_sets_flag_not_growth(self):
        ext = INTExtension(capacity=2)
        assert ext.stamp(1, DECISION_FORWARD, REASON_NONE, 0.1)
        assert ext.stamp(2, DECISION_FORWARD, REASON_NONE, 0.2)
        assert not ext.stamp(3, DECISION_FORWARD, REASON_NONE, 0.3)
        assert ext.overflowed
        assert len(ext.records) == 2
        assert INTExtension.from_bytes(ext.to_bytes()).overflowed

    def test_fill_permille_clamped_to_field_width(self):
        ext = INTExtension(capacity=1)
        ext.stamp(1, DECISION_FORWARD, REASON_NONE, 0.0, fill_permille=10**6)
        assert ext.records[0].fill_permille == 0xFFFF
        INTExtension.from_bytes(ext.to_bytes())  # still serializable

    def test_from_bytes_rejects_bad_input(self):
        ext = INTExtension(capacity=2)
        good = bytearray(ext.to_bytes())
        with pytest.raises(ValueError, match="version"):
            bad = bytearray(good)
            bad[0] = INT_VERSION + 1
            INTExtension.from_bytes(bytes(bad))
        with pytest.raises(ValueError, match="count"):
            bad = bytearray(good)
            bad[2] = 3  # count > capacity
            INTExtension.from_bytes(bytes(bad))
        with pytest.raises(ValueError, match="bytes"):
            INTExtension.from_bytes(good[:3])

    def test_capacity_bounds(self):
        with pytest.raises(ValueError):
            INTExtension(capacity=0)
        with pytest.raises(ValueError):
            INTExtension(capacity=256)

    def test_fresh_band_same_geometry_no_records(self):
        ext = INTExtension(capacity=3)
        ext.stamp(1, DECISION_DROP, REASON_NONE, 0.1)
        fresh = ext.fresh()
        assert fresh.capacity == 3
        assert fresh.records == []
        assert not fresh.overflowed

    def test_names(self):
        assert decision_name(DECISION_TRIM) == "trim"
        assert decision_name(99) == "decision-99"
        assert reason_name(REASON_BUFFER_OVERFLOW) == "buffer-overflow"
        assert reason_name(99) == "reason-99"


class TestHopRegistry:
    def test_interning_is_stable(self):
        a = hop_id("test-hop-a")
        b = hop_id("test-hop-b")
        assert a != b
        assert hop_id("test-hop-a") == a
        assert hop_name(a) == "test-hop-a"

    def test_unknown_id_renders_fallback(self):
        assert hop_name(65_000) == "hop65000"


class TestPacketizerIntegration:
    def test_disabled_attaches_nothing(self):
        assert int_capacity() is None
        for pkt in grad_packets():
            assert pkt.int_ext is None
            assert not pkt.grad_header.has_int

    def test_enabled_attaches_band_to_every_packet(self, int_enabled):
        packets = grad_packets()
        for pkt in packets:
            assert pkt.int_ext is not None
            assert pkt.int_ext.capacity == DEFAULT_INT_CAPACITY
            assert pkt.int_ext.records == []
            assert pkt.grad_header.has_int

    def test_flag_lives_in_payload_bytes(self, int_enabled):
        # The flag must be baked into the serialized header (payload
        # views are read-only), not just the parsed twin.
        for pkt in grad_packets():
            parsed = GradientHeader.from_bytes(bytes(pkt.payload[:GRADIENT_HEADER_BYTES]))
            assert parsed.flags & FLAG_INT

    def test_wire_size_charges_the_band(self, int_enabled):
        with_band = grad_packets()
        disable_int()
        without = grad_packets()
        expected = INT_HEADER_BYTES + DEFAULT_INT_CAPACITY * INT_RECORD_BYTES
        for a, b in zip(with_band, without):
            assert a.wire_size == b.wire_size + expected

    def test_band_outside_checksum(self, int_enabled):
        pkt = grad_packets()[1].seal()
        assert pkt.verify()
        # A switch stamping after the sender sealed must not read as
        # corruption: the band sits outside the payload CRC.
        pkt.int_ext.stamp(1, DECISION_FORWARD, REASON_NONE, 0.5)
        assert pkt.verify()

    def test_trim_preserves_the_band(self, int_enabled):
        pkt = grad_packets()[1]
        pkt.int_ext.stamp(3, DECISION_FORWARD, REASON_NONE, 0.25, queue_depth_bytes=77)
        trimmed = pkt.trim()
        assert trimmed.int_ext is pkt.int_ext  # shared, untouched
        assert trimmed.int_ext.records[0].queue_depth_bytes == 77
        # Stamps after the trim land on the surviving band.
        trimmed.int_ext.stamp(4, DECISION_TRIM, REASON_BUFFER_OVERFLOW, 0.5)
        assert len(trimmed.int_ext.records) == 2

    def test_clone_gets_fresh_band(self, int_enabled):
        pkt = grad_packets()[1]
        pkt.int_ext.stamp(3, DECISION_FORWARD, REASON_NONE, 0.25)
        clone = pkt.clone()
        assert clone.int_ext is not pkt.int_ext
        assert clone.int_ext.records == []
        assert clone.int_ext.capacity == pkt.int_ext.capacity


class TestCollector:
    def _delivered_packet(self, hops=2):
        pkt = grad_packets(n=400)[1]
        pkt.flow_id = 42
        for h in range(hops):
            pkt.int_ext.stamp(
                hop_id(f"col-hop-{h}"),
                DECISION_FORWARD,
                REASON_NONE,
                0.1 * (h + 1),
                queue_depth_bytes=100 * (h + 1),
                fill_permille=10 * (h + 1),
            )
        return pkt

    def test_disabled_collects_nothing(self, int_enabled):
        collector = INTCollector(enabled=False)
        assert collector.collect(self._delivered_packet()) == 0
        assert collector.series == set()

    def test_series_keyed_by_flow_message_hop(self, int_enabled):
        collector = INTCollector(enabled=True)
        pkt = self._delivered_packet(hops=2)
        assert collector.collect(pkt) == 2
        message_id = pkt.grad_header.message_id
        assert collector.series == {
            (42, message_id, hop_id("col-hop-0")),
            (42, message_id, hop_id("col-hop-1")),
        }
        assert collector.summary()["records"] == 2
        assert collector.decision_counts() == {"forward": 2}

    def test_packet_without_band_is_free(self, int_enabled):
        disable_int()
        collector = INTCollector(enabled=True)
        assert collector.collect(grad_packets(n=400)[1]) == 0
        assert collector.packets_collected == 0

    def test_jsonl_is_deterministic(self, int_enabled, tmp_path):
        paths = []
        for name in ("a.jsonl", "b.jsonl"):
            path = tmp_path / name
            collector = INTCollector(enabled=True, jsonl_path=str(path))
            collector.collect(self._delivered_packet(hops=3))
            collector.close()
            paths.append(path)
        first, second = (p.read_bytes() for p in paths)
        assert first == second
        lines = [json.loads(line) for line in first.decode().splitlines()]
        assert len(lines) == 3
        assert lines[0]["decision"] == "forward"
        assert lines[0]["hop_name"] == "col-hop-0"
