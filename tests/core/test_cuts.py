"""Every codec rides one wire path, and one cut rule serves every trim.

``packetize`` lays out each plane of a codec's code
(``repro.packet.header.CODE_PLANES``: two planes for the single-level
codecs, three for Section 5.1's multi-level code), ``Packet.cut`` cuts at
a plane boundary of the packet's own code, and ``depacketize`` /
``decode_packets`` read back whatever depth arrived.  The cases below are
what went wrong while the multi-level code had a wire path of its own.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import available_codecs, codec_by_name, decode_packets, depacketize, packetize
from repro.net import dumbbell
from repro.net.crosstraffic import IncastBurst
from repro.obs.int_telemetry import disable_int, enable_int
from repro.packet import (
    FLAG_INT,
    GRADIENT_HEADER_BYTES,
    MultiLevelTrim,
    SingleLevelTrim,
    packed_size,
)
from repro.train import network_channel
from repro.train.network_channel import NetworkChannel

COORDS = 3224


def make_codec(name, seed=1):
    row = {"row_size": 1024} if name in ("rht", "multilevel", "eden") else {}
    return codec_by_name(name, root_seed=seed, **row)


def message(name, coords=COORDS, seed=1):
    codec = make_codec(name)
    grad = np.random.default_rng(seed).standard_normal(coords)
    return codec, grad, packetize(codec.encode(grad, epoch=1, message_id=seed), "a", "b")


class TestMultiLevelPackets:
    def test_a_second_cut_keeps_whole_planes(self):
        """8 bits, then the head-only cut a SingleLevelTrim switch or a
        link's ``trim_prob`` makes: the sign plane stays whole."""
        codec, grad, packets = message("multilevel")
        count = packets[1].grad_header.coord_count
        twice = [packets[0]] + [p.trim(8).trim() for p in packets[1:]]
        assert len(twice[1].payload) == GRADIENT_HEADER_BYTES + packed_size(count, 1)
        assert set(np.unique(depacketize(twice).depth)) == {1}
        once = [packets[0]] + [p.trim(1) for p in packets[1:]]
        assert np.array_equal(decode_packets(twice, codec), decode_packets(once, codec))

    def test_an_8_bit_remnant_is_cut_to_1_bit_not_dropped(self):
        _, _, packets = message("multilevel")
        remnant8 = packets[1].trim(8)
        cut, level = MultiLevelTrim([8, 1], [0.7, 0.9]).trim(remnant8, 0.8)
        assert level == 0 and cut.grad_header.head_bits == 1
        assert cut.wire_size < remnant8.wire_size
        assert MultiLevelTrim([8, 1], [0.7, 0.9]).trim(cut, 0.95) is None

    def test_the_int_band_rides_every_codec(self):
        enable_int()
        try:
            _, _, packets = message("multilevel")
        finally:
            disable_int()
        assert all(p.int_ext is not None for p in packets)
        assert all(p.payload[3] & FLAG_INT for p in packets)

    def test_a_two_plane_packet_keeps_its_heads_at_any_level(self):
        _, _, packets = message("rht")
        for bits in (0, 1, 8, 31, 32):
            assert packets[1].trim(bits).payload == packets[1].trim().payload


def _multilevel_fabric():
    """The ``ddp-dumbbell`` fabric with ``MultiLevelTrim`` on every switch."""
    net = dumbbell(
        pairs=4,
        edge_rate_bps=10e9,
        bottleneck_rate_bps=10e9,
        trim_policy=MultiLevelTrim([8, 1], [0.0, 0.97]),
        buffer_bytes=40_000,
    )
    IncastBurst(
        net.sim, [net.hosts[f"tx{i}"] for i in (1, 2, 3)], "rx0", burst_bytes=400_000, seed=7
    ).fire(0.0)
    return net


@pytest.mark.parametrize("name", ["rht", "multilevel"])
def test_a_transfer_over_a_multilevel_fabric_decodes(name, monkeypatch):
    codec = codec_by_name(name, root_seed=8, row_size=4096)
    wires = []

    def recording(wire, codec):
        wires.append(wire)
        return decode_packets(wire, codec)

    monkeypatch.setattr(network_channel, "decode_packets", recording)
    channel = NetworkChannel(_multilevel_fabric, codec, src="tx0", dst="rx0")
    gradient = np.random.default_rng(7).standard_normal(111_460)
    decoded = channel.transfer(gradient)
    assert decoded.shape == gradient.shape and np.all(np.isfinite(decoded))
    assert channel.last_trim_fraction > 0.2
    (wire,) = wires
    heads = {p.grad_header.head_bits for p in wire if p.is_trimmed}
    assert heads == ({1, 8} if name == "multilevel" else {1})
    if name == "multilevel":
        assert set(np.unique(depacketize(wire).depth)) == {1, 8, 32}


# -- any sequence of cuts --------------------------------------------------------


def _cuts():
    single = st.just(("single", 0.0))
    multi = st.tuples(
        st.just("multi"), st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
    )
    plain = st.just(("packet", 0.0))
    return st.lists(st.one_of(single, multi, plain), max_size=3)


_POLICIES = {
    "single": SingleLevelTrim(),
    "multi": MultiLevelTrim([8, 1], [0.3, 0.8]),
}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    name=st.sampled_from(sorted(available_codecs())),
    plan=st.lists(_cuts(), min_size=1, max_size=6),
)
def test_any_sequence_of_cuts_shrinks_or_drops_and_still_decodes(name, plan):
    codec, grad, packets = message(name, coords=2_000)
    received = [packets[0]]
    for pkt, cuts in zip(packets[1:], plan * len(packets)):
        for kind, fill in cuts:
            if kind == "packet":  # as a link's trim_prob does
                remnant = pkt.trim() if pkt.trimmable_bytes() is not None else None
            else:
                done = _POLICIES[kind].trim(pkt, fill)
                remnant = None if done is None else done[0]
            if remnant is None:
                pkt = None
                break
            assert remnant.wire_size < pkt.wire_size
            pkt = remnant
        if pkt is not None:
            received.append(pkt)
    decoded = decode_packets(received, codec)
    assert decoded.shape == grad.shape and np.all(np.isfinite(decoded))
