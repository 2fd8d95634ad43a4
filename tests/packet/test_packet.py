"""Tests for the Packet object and the trim operation."""

import dataclasses
import zlib

import numpy as np
import pytest

from repro.packet import (
    FLAG_INT,
    FLAG_METADATA,
    FLAG_TRIMMED,
    GRADIENT_HEADER_BYTES,
    WIRE_HEADER_BYTES,
    GradientHeader,
    Packet,
)
from repro.packet.header import FLAGS_AT

from .test_bitpack import pack_bits


def gradient_packet(coord_count=365, head_bits=1, tail_bits=31, flags=0):
    header = GradientHeader(
        codec_id=1,
        head_bits=head_bits,
        tail_bits=tail_bits,
        message_id=1,
        epoch=0,
        chunk_index=1,
        coord_offset=0,
        coord_count=coord_count,
        seed=0,
        flags=flags,
    )
    rng = np.random.default_rng(0)
    heads = rng.integers(0, 2, coord_count).astype(np.uint32)
    tails = rng.integers(0, 2**31, coord_count).astype(np.uint32)
    payload = header.to_bytes() + pack_bits(heads, head_bits) + pack_bits(tails, tail_bits)
    return Packet(src="h0", dst="h1", payload=payload)


class TestWireSize:
    def test_includes_42_byte_header(self):
        pkt = Packet(src="a", dst="b", payload=b"x" * 100)
        assert pkt.wire_size == WIRE_HEADER_BYTES + 100

    def test_empty_payload(self):
        assert Packet(src="a", dst="b").wire_size == WIRE_HEADER_BYTES


class TestTrim:
    def test_trim_keeps_header_plus_heads(self):
        pkt = gradient_packet(coord_count=365)
        trimmed = pkt.trim()
        # 365 one-bit heads pack into 46 bytes.
        assert len(trimmed.payload) == GRADIENT_HEADER_BYTES + 46
        assert trimmed.is_trimmed
        assert trimmed.grad_header.trimmed
        assert trimmed.trimmed_from == pkt.wire_size

    def test_trim_raises_priority(self):
        trimmed = gradient_packet().trim()
        assert trimmed.priority >= 1

    def test_original_untouched(self):
        pkt = gradient_packet()
        size_before, payload_before = pkt.wire_size, bytes(pkt.payload)
        trimmed = pkt.trim()
        assert pkt.wire_size == size_before
        assert not pkt.is_trimmed
        assert bytes(pkt.payload) == payload_before and not pkt.grad_header.trimmed
        assert trimmed.payload[FLAGS_AT] == payload_before[FLAGS_AT] | FLAG_TRIMMED

    def test_non_gradient_packet_not_trimmable(self):
        pkt = Packet(src="a", dst="b", payload=b"x" * 1000)
        assert pkt.trimmable_bytes() is None
        with pytest.raises(ValueError, match="not trimmable"):
            pkt.trim()

    def test_metadata_packet_not_trimmable(self):
        pkt = gradient_packet(flags=FLAG_METADATA)
        assert pkt.trimmable_bytes() is None

    def test_ack_not_trimmable(self):
        pkt = gradient_packet()
        pkt.is_ack = True
        assert pkt.trimmable_bytes() is None

    def test_already_short_packet_not_trimmable(self):
        # A packet whose payload is already at (or below) the keep
        # threshold cannot shrink further.
        pkt = gradient_packet(coord_count=365)
        pkt.payload = pkt.payload[: GRADIENT_HEADER_BYTES + 10]
        assert pkt.trimmable_bytes() is None

    def test_trimmed_payload_is_prefix(self):
        pkt = gradient_packet(coord_count=100)
        trimmed = pkt.trim()
        body = trimmed.payload[GRADIENT_HEADER_BYTES:]
        assert pkt.payload[GRADIENT_HEADER_BYTES : GRADIENT_HEADER_BYTES + len(body)] == body

    def test_trim_shrinks_wire_size_drastically(self):
        pkt = gradient_packet(coord_count=356)
        trimmed = pkt.trim()
        assert trimmed.wire_size < pkt.wire_size * 0.1


class TestIdentity:
    def test_packet_ids_unique(self):
        a = Packet(src="a", dst="b")
        b = Packet(src="a", dst="b")
        assert a.packet_id != b.packet_id

    def test_clone_gets_fresh_id(self):
        pkt = gradient_packet()
        clone = pkt.clone()
        assert clone.packet_id != pkt.packet_id
        assert clone.payload == pkt.payload

    def test_is_gradient(self):
        assert gradient_packet().is_gradient
        assert not Packet(src="a", dst="b").is_gradient


class TestHeaderAccessors:
    """The payload's 32 header bytes are the only header a packet has;
    every accessor reads them, and a payload that does not start with
    one (wrong magic, too short) is simply not gradient traffic."""

    def test_read_from_the_bytes(self):
        pkt = gradient_packet(coord_count=100)
        assert pkt.message_id == 1 and not pkt.is_metadata
        assert pkt.grad_header == GradientHeader.from_bytes(pkt.payload)
        meta = gradient_packet(flags=FLAG_METADATA)
        assert meta.is_metadata and meta.is_gradient and meta.trimmable_bytes() is None

    @pytest.mark.parametrize(
        "payload",
        [b"", b"\x7am" + bytes(29), b"\x00" * 1416, b"\x7a\x6c" + bytes(200)],
        ids=["empty", "31-bytes", "filler", "magic-off-by-one"],
    )
    def test_other_traffic(self, payload):
        pkt = Packet(src="a", dst="b", payload=payload)
        assert not pkt.is_gradient and not pkt.is_metadata
        assert pkt.grad_header is None and pkt.message_id is None
        assert pkt.trimmable_bytes() is None

    def test_what_a_switch_reads_is_what_is_on_the_wire(self):
        """Bytes changed in flight change the answer: there is no stored
        twin for a reader to consult instead."""
        pkt = gradient_packet(coord_count=100)
        raw = bytearray(pkt.payload)
        raw[FLAGS_AT] |= FLAG_METADATA
        assert Packet(src="a", dst="b", payload=bytes(raw)).trimmable_bytes() is None
        raw[0] ^= 0x80
        assert not Packet(src="a", dst="b", payload=bytes(raw)).is_gradient


class TestCopiesCarryEveryField:
    """``trim`` / ``clone`` spell their copies out field by field
    (``dataclasses.replace`` was most of a trim's cost), so compare them with
    the ``replace``-based copy over ``fields(Packet)``: a field added later
    cannot be silently dropped from the hot path."""

    @staticmethod
    def busy_packet(sealed: bool) -> Packet:
        """A gradient packet with every field away from its default."""
        from repro.obs.int_telemetry import INTExtension

        base = gradient_packet(coord_count=356, flags=FLAG_INT)
        header = dataclasses.replace(base.grad_header, version=2, seed=99)
        payload = header.to_bytes() + bytes(base.payload[GRADIENT_HEADER_BYTES:])
        pkt = Packet(
            src="w3",
            dst="ps",
            payload=memoryview(payload).toreadonly(),
            priority=2,
            flow_id=17,
            seq=5,
            seq_total=12,
            is_ack=False,
            nack=True,
            pull=True,
            trimmed_echo=True,
            ecn=True,
            created_at=1.25e-3,
            trimmed_from=None,
            int_ext=INTExtension(4),
        )
        return pkt.seal() if sealed else pkt

    @staticmethod
    def assert_same_fields(got, want, but=()):
        for f in dataclasses.fields(want):
            if f.name not in but:
                assert getattr(got, f.name) == getattr(want, f.name), f.name

    @pytest.mark.parametrize("sealed", [False, True])
    def test_trim_matches_replace(self, sealed):
        pkt = self.busy_packet(sealed)
        got = pkt.trim()
        keep = pkt.trimmable_bytes()
        header = dataclasses.replace(pkt.grad_header, flags=pkt.grad_header.flags | FLAG_TRIMMED)
        payload = header.to_bytes() + bytes(pkt.payload[GRADIENT_HEADER_BYTES:keep])
        want = dataclasses.replace(
            pkt,
            payload=payload,
            trimmed_from=pkt.wire_size,
            checksum=zlib.crc32(payload) if sealed else None,
        )
        self.assert_same_fields(got, want)
        assert got.packet_id == pkt.packet_id and got.int_ext is pkt.int_ext
        assert isinstance(got.payload, bytes) and got.verify()
        assert got.wire_size == want.wire_size < pkt.wire_size

    def test_trim_raises_priority_only_up_to_one(self):
        pkt = self.busy_packet(sealed=False)
        assert pkt.trim().priority == 2
        pkt.priority = 0
        assert pkt.trim().priority == 1

    @pytest.mark.parametrize("sealed", [False, True])
    def test_clone_matches_replace(self, sealed):
        pkt = self.busy_packet(sealed).trim()  # so trimmed_from is set too
        pkt.int_ext.stamp(hop=1, decision=0, reason=0, sim_time=0.0)
        got = pkt.clone()
        want = dataclasses.replace(pkt, packet_id=got.packet_id, int_ext=got.int_ext)
        self.assert_same_fields(got, want)
        assert got.packet_id > pkt.packet_id
        assert got.int_ext is not pkt.int_ext and len(got.int_ext.records) == 0
        assert got.wire_size == pkt.wire_size

    def test_clone_without_int_band(self):
        pkt = gradient_packet()
        assert pkt.clone().int_ext is None

    # The sites that build a packet a packet pass its fields by position
    # (keyword construction is dearer): each must equal the keyword
    # construction it stands for, with its id drawn from the one counter
    # in creation order, so a reordered field fails here.

    @staticmethod
    def assert_built_as(got, fields):
        """Each of ``got`` equals ``Packet(**fields[i])`` over every field
        but ``packet_id``; the ids of ``got`` are consecutive and were drawn
        before the keyword twins'."""
        want = [Packet(**kwargs) for kwargs in fields]
        assert len(got) == len(want)
        for built, twin in zip(got, want):
            for f in dataclasses.fields(Packet):
                mine, theirs = getattr(built, f.name), getattr(twin, f.name)
                if f.name == "packet_id":
                    continue
                if f.name == "int_ext" and theirs is not None:
                    mine, theirs = (
                        (band.version, band.capacity, band.records, band.overflowed)
                        for band in (mine, theirs)
                    )
                assert mine == theirs, f.name
        ids = [pkt.packet_id for pkt in got]
        assert ids == list(range(ids[0], ids[0] + len(ids)))
        assert want[0].packet_id > ids[-1]

    @pytest.mark.parametrize("flag", ["nack", "pull", "trimmed_echo", "ecn"])
    def test_copies_keep_each_flag_in_its_field(self, flag):
        """The busy packet sets every flag, so a swap of two would not show."""
        pkt = dataclasses.replace(gradient_packet(), **{flag: True})
        for copy in (pkt.clone(), pkt.trim()):
            assert [getattr(copy, name) for name in ("nack", "pull", "trimmed_echo", "ecn")] == [
                name == flag for name in ("nack", "pull", "trimmed_echo", "ecn")
            ]

    @pytest.mark.parametrize("int_band", [False, True])
    def test_packetize_data_packets(self, int_band):
        from repro.core import codec_by_name, packetize
        from repro.obs.int_telemetry import INTExtension, disable_int, enable_int, int_capacity

        enc = codec_by_name("rht", root_seed=1).encode(np.arange(1000.0), epoch=1, message_id=2)
        if int_band:
            enable_int(6)
        try:
            packets = packetize(enc, "w1", "ps", mtu=512, flow_id=9)
            capacity = int_capacity()
        finally:
            disable_int()
        band = {"int_ext": INTExtension(capacity)} if int_band else {}
        fields = [
            dict(src="w1", dst="ps", payload=pkt.payload, flow_id=9, seq=seq, **band)
            for seq, pkt in enumerate(packets[1:], 1)
        ]
        self.assert_built_as(packets[1:], fields)

    def test_transport_control_packets(self):
        from repro.net.simulator import Simulator
        from repro.transport.pull import PullReceiver
        from repro.transport.reliable import GoBackNReceiver
        from repro.transport.trimming import TrimmingReceiver

        class Host:
            """What a receiver touches of its host."""

            def __init__(self):
                self.name, self.sim, self.sent = "ps", Simulator(), []

            def register_flow(self, flow_id, handler):
                pass

            def send(self, packet):
                self.sent.append(packet)

        control = dict(src="ps", dst="w3", priority=2, flow_id=17, is_ack=True)
        trimming = TrimmingReceiver(Host(), 17)
        trimming._peer = "w3"
        trimming._send_control(5, nack=True, trimmed_echo=True, ecn=True)
        self.assert_built_as(
            trimming.host.sent, [dict(control, seq=5, nack=True, trimmed_echo=True, ecn=True)]
        )
        # The ACKs _on_packet sends: a full packet's, then a trimmed
        # gradient packet's (with its echo).
        trimming.host.sent.clear()
        grad = dataclasses.replace(gradient_packet(), src="w3", flow_id=17, seq=6, seq_total=9)
        trimming._on_packet(dataclasses.replace(grad, ecn=True))
        trimming._on_packet(dataclasses.replace(grad.trim(), seq=7))
        self.assert_built_as(
            trimming.host.sent,
            [dict(control, seq=6, ecn=True), dict(control, seq=7, trimmed_echo=True)],
        )
        gbn = GoBackNReceiver(Host(), 17)
        gbn._peer, gbn._expected = "w3", 8
        gbn._send_cumulative_ack(ecn=True)
        self.assert_built_as(gbn.host.sent, [dict(control, seq=7, ecn=True)])
        pull = PullReceiver(Host(), 17)
        data = Packet(src="w3", dst="ps", payload=b"x", flow_id=17, seq=4, seq_total=9, ecn=True)
        pull._on_packet(data)
        pull.sim.run()
        self.assert_built_as(pull.host.sent, [dict(control, seq=4, pull=True, ecn=True)])

    def test_tenant_packets(self):
        from repro.net.crosstraffic import IncastBurst, OnOffFlow
        from repro.net.simulator import Simulator

        class Host:
            """What a traffic source touches of its host."""

            def __init__(self, name):
                self.name, self.sent = name, []

            def send(self, packet):
                self.sent.append(packet)

        sim = Simulator()
        flow = OnOffFlow(sim, Host("t0"), "t9", 1e9, packet_bytes=300, flow_id=41)
        flow._active, flow._burst_until = True, 1.0
        flow._emit()
        self.assert_built_as(
            flow.src.sent, [dict(src="t0", dst="t9", payload=b"\x00" * 258, flow_id=41)]
        )
        sender = Host("t1")
        burst = IncastBurst(sim, [sender], "t9", burst_bytes=2000, packet_bytes=1458, flow_id_base=50)
        burst._blast(sender, 3)
        fields = [
            dict(src="t1", dst="t9", payload=b"\x00" * size, flow_id=53) for size in (1416, 584)
        ]
        self.assert_built_as(sender.sent, fields)
