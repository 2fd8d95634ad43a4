"""Tests for packetize/depacketize — the Figure 2(b) wire layout."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.packet.bitpack as bitpack
from repro.core import (
    RHTCodec,
    SignMagnitudeCodec,
    SubtractiveDitheringCodec,
    codec_by_name,
    decode_packets,
    depacketize,
    nmse,
    packetize,
)


def gradient(n=3000, seed=0):
    return np.random.default_rng(seed).standard_normal(n).astype(np.float32).astype(np.float64)


class TestPacketize:
    def test_first_packet_is_metadata(self):
        enc = SignMagnitudeCodec().encode(gradient())
        packets = packetize(enc, "h0", "h1")
        assert packets[0].grad_header.is_metadata
        assert packets[0].trimmable_bytes() is None
        assert all(not p.grad_header.is_metadata for p in packets[1:])

    def test_data_packets_respect_mtu(self):
        enc = SignMagnitudeCodec().encode(gradient())
        for pkt in packetize(enc, "h0", "h1", mtu=1500):
            assert pkt.wire_size <= 1500

    def test_coordinate_coverage_is_exact(self):
        enc = SignMagnitudeCodec().encode(gradient(1000))
        packets = packetize(enc, "h0", "h1")
        covered = sum(p.grad_header.coord_count for p in packets[1:])
        assert covered == 1000

    def test_chunk_indices_sequential(self):
        enc = SignMagnitudeCodec().encode(gradient(2000))
        packets = packetize(enc, "h0", "h1")
        assert [p.grad_header.chunk_index for p in packets[1:]] == list(
            range(1, len(packets))
        )

    def test_small_message_single_data_packet(self):
        enc = SignMagnitudeCodec().encode(gradient(10))
        packets = packetize(enc, "h0", "h1")
        assert len(packets) == 2  # metadata + one data packet

    def test_jumbo_mtu_fewer_packets(self):
        enc = SignMagnitudeCodec().encode(gradient(5000))
        standard = packetize(enc, "h0", "h1", mtu=1500)
        jumbo = packetize(enc, "h0", "h1", mtu=9000)
        assert len(jumbo) < len(standard)


class TestDepacketize:
    @pytest.mark.parametrize("name", ["sign", "sq", "sd", "rht"])
    def test_round_trip_no_trim(self, name):
        x = gradient(2500)
        codec = codec_by_name(name, root_seed=3)
        enc = codec.encode(x, epoch=2, message_id=5)
        decoded = decode_packets(packetize(enc, "a", "b"), codec)
        assert nmse(x, decoded) < 1e-12

    @pytest.mark.parametrize("name", ["sign", "sq", "sd", "rht"])
    def test_round_trip_decodes_via_registry(self, name):
        """decode_packets can reconstruct the codec from the wire id."""
        x = gradient(800)
        codec = codec_by_name(name, root_seed=0)
        enc = codec.encode(x)
        decoded = decode_packets(packetize(enc, "a", "b"))
        assert nmse(x, decoded) < 1e-12

    def test_out_of_order_arrival(self):
        x = gradient(2500)
        codec = SubtractiveDitheringCodec(root_seed=1)
        packets = packetize(codec.encode(x), "a", "b")
        rng = np.random.default_rng(0)
        shuffled = [packets[i] for i in rng.permutation(len(packets))]
        assert nmse(x, decode_packets(shuffled, codec)) < 1e-12

    def test_trimmed_packets_mark_coordinates(self):
        x = gradient(3000)
        codec = SignMagnitudeCodec()
        packets = packetize(codec.encode(x), "a", "b")
        packets[1] = packets[1].trim()
        message = depacketize(packets)
        hdr = packets[1].grad_header
        lo, hi = hdr.coord_offset, hdr.coord_offset + hdr.coord_count
        assert message.trimmed[lo:hi].all()
        assert not message.trimmed[hi:].any()
        assert message.trim_fraction == pytest.approx(hdr.coord_count / 3000)

    def test_trimmed_decode_uses_head_estimates(self):
        x = gradient(3000)
        codec = SignMagnitudeCodec()
        packets = packetize(codec.encode(x), "a", "b")
        trimmed = [packets[0]] + [p.trim() for p in packets[1:]]
        decoded = decode_packets(trimmed, codec)
        assert np.allclose(np.abs(decoded), np.std(x))

    def test_dropped_packet_marks_missing(self):
        x = gradient(3000)
        codec = SignMagnitudeCodec()
        packets = packetize(codec.encode(x), "a", "b")
        hdr = packets[2].grad_header
        del packets[2]
        message = depacketize(packets, length=3000)
        lo, hi = hdr.coord_offset, hdr.coord_offset + hdr.coord_count
        assert message.missing[lo:hi].all()
        decoded = decode_packets(packets, codec, length=3000)
        assert np.all(decoded[lo:hi] == 0.0)

    def test_missing_metadata_raises_on_decode(self):
        x = gradient(500)
        codec = SignMagnitudeCodec()
        packets = packetize(codec.encode(x), "a", "b")[1:]  # drop metadata
        message = depacketize(packets)
        assert message.metadata is None
        with pytest.raises(ValueError, match="metadata packet missing"):
            message.to_encoded()

    def test_no_packets_raises(self):
        with pytest.raises(ValueError, match="no gradient packets"):
            depacketize([])

    def test_rht_packet_path_with_trimming(self):
        """Trimming 30% of packets of an RHT message keeps NMSE near the
        array-level prediction."""
        x = gradient(2**13, seed=9)
        codec = RHTCodec(root_seed=2, row_size=1024)
        enc = codec.encode(x)
        packets = packetize(enc, "a", "b")
        rng = np.random.default_rng(1)
        wire = [packets[0]] + [
            p.trim() if rng.random() < 0.3 else p for p in packets[1:]
        ]
        decoded = decode_packets(wire, codec)
        assert nmse(x, decoded) < 0.3 * (np.pi / 2 - 1) + 0.15


@settings(max_examples=15, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=1500),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    mtu=st.sampled_from([576, 1500, 9000]),
)
def test_packet_round_trip_property(n, seed, mtu):
    """packetize/depacketize is lossless for any length and MTU."""
    x = np.random.default_rng(seed).standard_normal(n)
    codec = SignMagnitudeCodec()
    enc = codec.encode(x)
    decoded = decode_packets(packetize(enc, "a", "b", mtu=mtu), codec)
    assert nmse(x, decoded) < 1e-12


class TestDeepestCopyWins:
    """Two copies of one packet, one cut: the deeper one's bits are kept,
    whichever arrived first."""

    @staticmethod
    def _cases(name, cuts):
        enc = codec_by_name(name, root_seed=3).encode(gradient(3224), epoch=1, message_id=2)
        packets = packetize(enc, "h0", "h1")
        for index in (1, len(packets) - 1):  # a full packet and the short final one
            for bits in cuts:
                copy = packets[index].trim(bits)
                yield enc, packets, packets + [copy], [copy] + packets

    def test_two_plane_code(self):
        for enc, packets, after, before in self._cases("rht", (0,)):
            clean = depacketize(packets)
            for received in (after, before):
                msg = depacketize(received)
                assert not msg.trimmed.any() and not msg.missing.any()
                assert np.array_equal(msg.heads, enc.heads)
                assert np.array_equal(msg.tails, enc.tails)
                assert np.array_equal(decode_packets(received), decode_packets(packets))
                assert np.array_equal(msg.heads, clean.heads)

    def test_multilevel_code(self):
        for enc, packets, after, before in self._cases("multilevel", (1, 8)):
            for received in (after, before):
                msg = depacketize(received)
                assert set(np.unique(msg.depth)) == {32}
                assert not msg.trimmed.any()
                assert np.array_equal(msg.tails, enc.tails)
                assert np.array_equal(decode_packets(received), decode_packets(packets))

    def test_multilevel_shallower_cut_keeps_the_deeper_cut(self):
        enc = codec_by_name("multilevel", root_seed=3).encode(gradient(3224))
        packets = packetize(enc, "h0", "h1")
        eight, one = packets[2].trim(8), packets[2].trim(1)
        want = depacketize([p for p in packets if p is not packets[2]] + [eight])
        for pair in ((eight, one), (one, eight)):
            msg = depacketize([p for p in packets if p is not packets[2]] + list(pair))
            assert set(np.unique(msg.depth)) == {8, 32}
            for plane in ("heads", "tails", "trimmed", "missing", "depth"):
                assert np.array_equal(getattr(msg, plane), getattr(want, plane)), plane


class TestOneKernelCallPerPlane:
    """A clean message of at most ``ROW_GROUP`` data packets is one row
    group: each plane reaches the row kernel once on each side."""

    @pytest.mark.parametrize(
        "name, length",
        [
            ("rht", 3224),  # a cluster job's message: 12 packets, the last 180 coordinates
            ("rht", 30_000),  # padded to 2^15: 93 packets
            ("multilevel", 3224),
            ("sq", 3224),
            ("sq", 356 * (bitpack.ROW_GROUP - 1) + 1),  # ROW_GROUP packets, the last short
            ("sq", 356 * bitpack.ROW_GROUP),  # ROW_GROUP full packets
        ],
    )
    def test_pack_and_unpack_rows_run_once_per_plane(self, monkeypatch, name, length):
        calls = {"_pack_rows": 0, "_unpack_rows": 0}
        for kernel in calls:
            original = getattr(bitpack, kernel)

            def spy(*args, _original=original, _kernel=kernel, **kwargs):
                calls[_kernel] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(bitpack, kernel, spy)
        codec = codec_by_name(name, root_seed=1)
        enc = codec.encode(gradient(length), epoch=0, message_id=1)
        planes = 3 if name == "multilevel" else 2
        packets = packetize(enc, "h0", "h1")
        assert 1 < len(packets) - 1 <= bitpack.ROW_GROUP
        assert calls == {"_pack_rows": planes, "_unpack_rows": 0}
        msg = depacketize(packets)
        assert calls == {"_pack_rows": planes, "_unpack_rows": planes}
        assert np.array_equal(msg.heads, enc.heads) and np.array_equal(msg.tails, enc.tails)
