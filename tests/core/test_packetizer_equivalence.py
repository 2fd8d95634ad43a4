"""Old-vs-new packetize/depacketize equivalence and zero-copy invariants.

PR 4 rewrote the wire path to pack whole messages in batched numpy calls
and hand out zero-copy payload views.  These tests pin the rewrite to the
original per-packet semantics: a reference implementation (transcribed
from the pre-rewrite code, one ``pack_bits``/``unpack_bits`` call per
packet) must agree with the production path bit for bit — on pristine
messages and under hypothesis-driven trimming, dropping, and reordering.
"""

import dataclasses
from typing import Iterable, List, Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    EncodedGradient,
    available_codecs,
    codec_by_name,
    depacketize,
    depacketize_many,
    packetize,
    packetize_many,
)
from repro.core.layout import coords_per_packet
from repro.core.metadata import GradientMetadata
from repro.core.packetizer import GradientMessage
from repro.obs.int_telemetry import INTExtension, disable_int, enable_int, int_capacity
from repro.packet import (
    GRADIENT_HEADER_BYTES,
    GradientHeader,
    Packet,
    pack_segments,
    packed_size,
    unpack_batch,
    unpack_bits,
)
from repro.packet.bitpack import ROW_GROUP
from repro.packet.header import FLAG_INT, FLAG_METADATA, FLAG_TRIMMED
from tests.core.depacketize_oracle import loop_depacketize
from tests.core.test_hostile_bytes import flip
from tests.packet.test_bitpack import pack_bits


def reference_packetize(
    enc: EncodedGradient, src: str = "", dst: str = "", mtu: int = 1500
) -> List[Packet]:
    """The pre-rewrite per-packet serializer (owned-bytes payloads)."""
    meta = enc.metadata
    n_per_packet = coords_per_packet(mtu, enc.head_bits, enc.tail_bits)
    meta_header = GradientHeader(
        codec_id=enc.codec_id,
        head_bits=enc.head_bits,
        tail_bits=enc.tail_bits,
        message_id=meta.message_id,
        epoch=meta.epoch,
        chunk_index=0,
        coord_offset=0,
        coord_count=0,
        seed=meta.seed,
        flags=FLAG_METADATA,
    )
    packets = [
        Packet(
            src=src,
            dst=dst,
            payload=meta_header.to_bytes() + meta.to_bytes(),
            priority=1,
        )
    ]
    for chunk, offset in enumerate(range(0, enc.length, n_per_packet)):
        end = min(offset + n_per_packet, enc.length)
        header = GradientHeader(
            codec_id=enc.codec_id,
            head_bits=enc.head_bits,
            tail_bits=enc.tail_bits,
            message_id=meta.message_id,
            epoch=meta.epoch,
            chunk_index=chunk + 1,
            coord_offset=offset,
            coord_count=end - offset,
            seed=meta.seed,
        )
        payload = (
            header.to_bytes()
            + pack_bits(enc.heads[offset:end], enc.head_bits)
            + pack_bits(enc.tails[offset:end], enc.tail_bits)
        )
        packets.append(
            Packet(src=src, dst=dst, payload=payload, seq=chunk + 1)
        )
    return packets


def reference_depacketize(
    packets: Iterable[Packet], length: Optional[int] = None
) -> GradientMessage:
    """The pre-rewrite per-packet reassembler (one unpack per plane)."""
    data_packets: List[Packet] = []
    metadata = None
    geometry: Optional[GradientHeader] = None
    for pkt in packets:
        header = pkt.grad_header or GradientHeader.from_bytes(pkt.payload)
        if header.is_metadata:
            metadata = GradientMetadata.from_bytes(pkt.payload[GRADIENT_HEADER_BYTES:])
            geometry = geometry or header
        else:
            data_packets.append(pkt)
            geometry = header if geometry is None or geometry.is_metadata else geometry
    if geometry is None:
        raise ValueError("no gradient packets to depacketize")
    headers = [p.grad_header or GradientHeader.from_bytes(p.payload) for p in data_packets]
    if length is None:
        length = max((h.coord_offset + h.coord_count for h in headers), default=0)
    full_head_bits = full_tail_bits = None
    for hdr in headers:
        if not hdr.trimmed:
            full_head_bits, full_tail_bits = hdr.head_bits, hdr.tail_bits
            break
    if full_head_bits is None or full_tail_bits is None:
        full_head_bits, full_tail_bits = geometry.head_bits, geometry.tail_bits
    heads = np.zeros(length, dtype=np.uint32)
    tails = np.zeros(length, dtype=np.uint32)
    trimmed = np.zeros(length, dtype=bool)
    covered = np.zeros(length, dtype=bool)
    # Trimmed packets first: of two copies of a coordinate the full one wins.
    for hdr, pkt in sorted(zip(headers, data_packets), key=lambda hp: not hp[0].trimmed):
        body = bytes(pkt.payload[GRADIENT_HEADER_BYTES:])
        lo, hi = hdr.coord_offset, hdr.coord_offset + hdr.coord_count
        heads[lo:hi] = unpack_bits(body, hdr.coord_count, hdr.head_bits)
        covered[lo:hi] = True
        trimmed[lo:hi] = hdr.trimmed
        if not hdr.trimmed:
            tail_start = packed_size(hdr.coord_count, hdr.head_bits)
            tails[lo:hi] = unpack_bits(body[tail_start:], hdr.coord_count, hdr.tail_bits)
    return GradientMessage(
        heads=heads,
        tails=tails,
        trimmed=trimmed,
        missing=~covered,
        metadata=metadata,
        codec_id=geometry.codec_id,
        head_bits=full_head_bits,
        tail_bits=full_tail_bits,
        length=length,
    )


def make_encoded(length: int, head_bits: int, tail_bits: int, seed: int = 0) -> EncodedGradient:
    """Synthetic encoded gradient with arbitrary geometry."""
    rng = np.random.default_rng(seed)
    return EncodedGradient(
        codec_id=1,
        head_bits=head_bits,
        tail_bits=tail_bits,
        length=length,
        heads=rng.integers(0, 1 << head_bits, size=length, dtype=np.uint32),
        tails=rng.integers(0, 1 << tail_bits, size=length, dtype=np.uint32),
        metadata=GradientMetadata(
            message_id=7,
            epoch=3,
            original_length=length,
            row_size=0,
            seed=seed,
            sigma=1.0,
        ),
    )


def assert_messages_equal(a: GradientMessage, b: GradientMessage) -> None:
    assert a.length == b.length
    assert a.codec_id == b.codec_id
    assert (a.head_bits, a.tail_bits) == (b.head_bits, b.tail_bits)
    assert np.array_equal(a.heads, b.heads)
    assert np.array_equal(a.tails, b.tails)
    assert np.array_equal(a.trimmed, b.trimmed)
    assert np.array_equal(a.missing, b.missing)
    assert (a.metadata is None) == (b.metadata is None)


geometries = st.tuples(
    st.integers(min_value=1, max_value=700),   # length
    st.integers(min_value=1, max_value=8),     # head bits
    st.integers(min_value=1, max_value=31),    # tail bits
    st.integers(min_value=0, max_value=2**31), # rng seed
)


class TestPacketizeEquivalence:
    @given(geometries)
    @settings(max_examples=60, deadline=None)
    def test_wire_bytes_identical(self, geom):
        length, head_bits, tail_bits, seed = geom
        enc = make_encoded(length, head_bits, tail_bits, seed)
        new = packetize(enc, "s", "d", mtu=256)
        old = reference_packetize(enc, "s", "d", mtu=256)
        assert len(new) == len(old)
        for new_pkt, old_pkt in zip(new, old):
            assert bytes(new_pkt.payload) == bytes(old_pkt.payload)
            assert new_pkt.grad_header == old_pkt.grad_header

    @given(geometries, st.data())
    @settings(max_examples=60, deadline=None)
    def test_depacketize_equivalence_under_chaos(self, geom, data):
        """Trim, drop, and reorder packets; both reassemblers must agree."""
        length, head_bits, tail_bits, seed = geom
        enc = make_encoded(length, head_bits, tail_bits, seed)
        packets = packetize(enc, "s", "d", mtu=256)
        received = [packets[0]]  # keep the reliable metadata packet
        for pkt in packets[1:]:
            fate = data.draw(st.sampled_from(["keep", "trim", "drop"]))
            if fate == "drop":
                continue
            received.append(pkt.trim() if fate == "trim" else pkt)
        order = data.draw(st.permutations(range(len(received))))
        received = [received[i] for i in order]
        assert_messages_equal(
            depacketize(received, length=enc.length),
            reference_depacketize(received, length=enc.length),
        )

    @given(geometries)
    @settings(max_examples=40, deadline=None)
    def test_round_trip_with_inferred_length(self, geom):
        length, head_bits, tail_bits, seed = geom
        enc = make_encoded(length, head_bits, tail_bits, seed)
        msg = depacketize(packetize(enc, mtu=256))
        ref = reference_depacketize(reference_packetize(enc, mtu=256))
        assert_messages_equal(msg, ref)
        assert np.array_equal(msg.heads, enc.heads)
        assert np.array_equal(msg.tails, enc.tails)
        assert not msg.trimmed.any() and not msg.missing.any()

    def test_new_depacketize_reads_reference_packets_and_vice_versa(self):
        """Cross-compatibility: either serializer feeds either reassembler."""
        enc = make_encoded(500, 1, 31, seed=5)
        new_pkts = packetize(enc, mtu=256)
        old_pkts = reference_packetize(enc, mtu=256)
        assert_messages_equal(
            depacketize(old_pkts), reference_depacketize(new_pkts)
        )

    def test_all_trimmed_message(self):
        enc = make_encoded(300, 2, 14, seed=9)
        packets = packetize(enc, mtu=128)
        received = [packets[0]] + [p.trim() for p in packets[1:]]
        assert_messages_equal(
            depacketize(received, length=enc.length),
            reference_depacketize(received, length=enc.length),
        )


class TestZeroCopyInvariants:
    def test_data_payloads_are_readonly_views(self):
        enc = make_encoded(400, 1, 31)
        packets = packetize(enc, mtu=256)
        for pkt in packets[1:]:
            assert isinstance(pkt.payload, memoryview)
            assert pkt.payload.readonly

    def test_views_share_one_message_buffer(self):
        enc = make_encoded(400, 1, 31)
        packets = packetize(enc, mtu=256)
        bufs = {pkt.payload.obj is packets[1].payload.obj for pkt in packets[2:]}
        assert bufs == {True}

    def test_trimmed_packet_owns_its_bytes(self):
        enc = make_encoded(400, 1, 31)
        pkt = packetize(enc, mtu=256)[1]
        trimmed = pkt.trim()
        assert isinstance(trimmed.payload, bytes)
        assert trimmed.grad_header is not None and trimmed.grad_header.trimmed

    def test_seal_and_verify_work_on_views(self):
        enc = make_encoded(200, 1, 31)
        for pkt in packetize(enc, mtu=256):
            sealed = pkt.seal()
            assert sealed.verify()

    def test_decode_matches_through_real_codec(self):
        grad = np.random.default_rng(3).standard_normal(2048)
        codec = codec_by_name("sign", root_seed=11)
        enc = codec.encode(grad, epoch=0, message_id=1)
        packets = packetize(enc, "a", "b")
        msg = depacketize(packets)
        ref = reference_depacketize(reference_packetize(enc, "a", "b", mtu=1500))
        assert_messages_equal(msg, ref)
        out = codec.decode(msg.to_encoded(), trimmed=msg.trimmed, missing=msg.missing)
        out_ref = codec.decode(ref.to_encoded(), trimmed=ref.trimmed, missing=ref.missing)
        assert np.array_equal(out, out_ref)

    @pytest.mark.parametrize("fate", ["trim", "drop"])
    def test_deepest_duplicate_wins(self, fate):
        """A trimmed duplicate of a full packet, before or after it, leaves
        the full copy's coordinates untrimmed."""
        enc = make_encoded(300, 1, 31)
        packets = packetize(enc, mtu=256)
        dup = packets[1].trim() if fate == "trim" else packets[1]
        for received in (packets + [dup], [packets[0], dup] + packets[1:]):
            msg = depacketize(received, length=enc.length)
            assert_messages_equal(msg, reference_depacketize(received, length=enc.length))
            assert not msg.trimmed.any() and np.array_equal(msg.tails, enc.tails)


def flat_scatter(packets: Iterable[Packet], length: int):
    """PR 4–16's store: group by geometry, then one index per coordinate.

    ``depacketize`` now stores a group that lies on its own ``coord_count``
    grid as whole rows and only falls back to this for the rest; both must
    fill ``(heads, tails, trimmed, missing)`` identically, duplicates and
    overlaps included (trimmed groups before full ones, otherwise in
    first-seen order; the last writer wins).
    """
    heads = np.zeros(length, dtype=np.uint32)
    tails = np.zeros(length, dtype=np.uint32)
    trimmed = np.zeros(length, dtype=bool)
    covered = np.zeros(length, dtype=bool)
    groups: dict = {}
    for pkt in packets:
        hdr = pkt.grad_header
        if not hdr.is_metadata:
            key = (hdr.coord_count, hdr.head_bits, hdr.tail_bits, hdr.trimmed)
            body = memoryview(pkt.payload)[GRADIENT_HEADER_BYTES:]
            groups.setdefault(key, []).append((hdr.coord_offset, body))
    for (count, head_bits, tail_bits, was_trimmed), members in sorted(
        groups.items(), key=lambda group: not group[0][3]
    ):
        offsets = np.array([lo for lo, _ in members], dtype=np.int64)
        flat = (offsets[:, None] + np.arange(count)).reshape(-1)
        cut = packed_size(count, head_bits)
        end = cut + packed_size(count, tail_bits)
        heads[flat] = unpack_batch([b[:cut] for _, b in members], count, head_bits).reshape(-1)
        covered[flat] = True
        trimmed[flat] = was_trimmed
        if not was_trimmed:
            tails[flat] = unpack_batch(
                [b[cut:end] for _, b in members], count, tail_bits
            ).reshape(-1)
    return heads, tails, trimmed, ~covered


def hand_packet(
    offset: int, count: int, rng, head_bits: int = 1, tail_bits: int = 31, trim: bool = False
) -> Packet:
    """A data packet at an arbitrary coordinate offset (no packetizer grid).

    Its chunk index is the one ``packetize`` would give a packet of
    ``count`` coordinates at ``offset``, so a packet on that grid is stored
    as a whole row and any other by the per-coordinate index.
    """
    header = GradientHeader(
        codec_id=1,
        head_bits=head_bits,
        tail_bits=tail_bits,
        message_id=7,
        epoch=3,
        chunk_index=offset // count + 1 if count else 1,
        coord_offset=offset,
        coord_count=count,
        seed=0,
        flags=FLAG_TRIMMED if trim else 0,
    )
    heads = rng.integers(0, 1 << head_bits, size=count, dtype=np.uint32)
    tails = rng.integers(0, 1 << tail_bits, size=count, dtype=np.uint32)
    payload = header.to_bytes() + pack_bits(heads, head_bits)
    if not trim:
        payload += pack_bits(tails, tail_bits)
    return Packet(src="s", dst="d", payload=payload)


def assert_same_store(packets: List[Packet], length: int) -> GradientMessage:
    msg = depacketize(packets, length=length)
    heads, tails, trimmed, missing = flat_scatter(packets, length)
    assert np.array_equal(msg.heads, heads)
    assert np.array_equal(msg.tails, tails)
    assert np.array_equal(msg.trimmed, trimmed)
    assert np.array_equal(msg.missing, missing)
    return msg


class TestRowScatterMatchesFlatScatter:
    @given(geometries, st.data())
    @settings(max_examples=60, deadline=None)
    def test_packetizer_output_trimmed_dropped_duplicated_shuffled(self, geom, data):
        length, head_bits, tail_bits, seed = geom
        enc = make_encoded(length, head_bits, tail_bits, seed)
        packets = packetize(enc, "s", "d", mtu=256)
        received = [packets[0]]
        for pkt in packets[1:]:
            fate = data.draw(st.sampled_from(["keep", "trim", "drop", "both"]))
            if fate in ("keep", "both"):
                received.append(pkt)
            if fate in ("trim", "both"):
                received.append(pkt.trim())
        order = data.draw(st.permutations(range(len(received))))
        assert_same_store([received[i] for i in order], enc.length)

    @pytest.mark.parametrize("shift", [0, 1, 5, 39])
    def test_hand_built_packets_on_and_off_the_grid(self, shift):
        """Same packets, slid off their coord_count grid by ``shift``."""
        rng = np.random.default_rng(shift)
        count, length = 40, 40 * 9 + 17
        slots = [0, 2, 3, 3, 7, 5]  # a hole at 1, 4, 6; slot 3 twice
        packets = [
            hand_packet(slot * count + shift, count, rng, trim=(i % 3 == 1))
            for i, slot in enumerate(slots)
        ]
        msg = assert_same_store(packets, length)
        assert msg.missing[count + shift : 2 * count + shift].all()
        assert not msg.missing[shift:count].any()

    def test_one_group_on_the_grid_one_off_it(self):
        rng = np.random.default_rng(11)
        packets = [hand_packet(k * 32, 32, rng) for k in (0, 1, 4)]
        packets += [hand_packet(70 + k * 24, 24, rng, trim=True) for k in range(3)]
        packets += [hand_packet(64, 32, rng)]  # overlaps the misaligned group
        assert_same_store(packets, 200)
        assert_same_store(packets[::-1], 200)

    def test_overlapping_misaligned_packets_last_writer_wins(self):
        rng = np.random.default_rng(12)
        packets = [hand_packet(lo, 16, rng, head_bits=3, tail_bits=13) for lo in (0, 8, 8, 20, 3)]
        assert_same_store(packets, 40)

    def test_length_not_a_multiple_of_the_grid(self):
        """The last whole grid row ends before ``length``; the rest is missing."""
        rng = np.random.default_rng(13)
        packets = [hand_packet(k * 50, 50, rng) for k in (1, 0, 3)]
        msg = assert_same_store(packets, 237)
        assert msg.missing[200:].all() and msg.missing[100:150].all()

    def test_empty_data_packet_is_harmless(self):
        rng = np.random.default_rng(14)
        packets = [hand_packet(0, 8, rng), hand_packet(5, 0, rng), hand_packet(8, 0, rng)]
        msg = assert_same_store(packets, 16)
        assert msg.missing[8:].all() and not msg.missing[:8].any()

    def test_errors_are_unchanged(self):
        rng = np.random.default_rng(15)
        good = hand_packet(0, 32, rng)
        with pytest.raises(ValueError, match="beyond length"):
            depacketize([good, hand_packet(32, 32, rng)], length=63)
        short = hand_packet(32, 32, rng)
        short.payload = short.payload[:-1]
        with pytest.raises(ValueError, match="payload bytes for 32 coords"):
            depacketize([good, short], length=64)


def loop_packetize(
    enc: EncodedGradient, src: str = "", dst: str = "", mtu: int = 1500, flow_id: int = 0
) -> List[Packet]:
    """PR 4–19's ``packetize``: one ``pack_into`` and two slice copies a packet.

    ``packetize`` now writes the header block and both packed planes of
    every full chunk as strided stores into the same ``bytearray`` and
    only the short last chunk this way; both must emit the same packets.
    """
    meta = enc.metadata
    n_per_packet = coords_per_packet(mtu, enc.head_bits, enc.tail_bits)
    capacity = int_capacity()
    int_flag = FLAG_INT if capacity is not None else 0

    def band():
        return INTExtension(capacity) if capacity is not None else None

    def header(chunk_index, coord_offset, coord_count, flags):
        return GradientHeader(
            codec_id=enc.codec_id,
            head_bits=enc.head_bits,
            tail_bits=enc.tail_bits,
            message_id=meta.message_id,
            epoch=meta.epoch,
            chunk_index=chunk_index,
            coord_offset=coord_offset,
            coord_count=coord_count,
            seed=meta.seed,
            flags=flags,
        )

    meta_header = header(0, 0, 0, FLAG_METADATA | int_flag)
    packets = [
        Packet(
            src=src,
            dst=dst,
            payload=meta_header.to_bytes() + meta.to_bytes(),
            priority=1,
            flow_id=flow_id,
            int_ext=band(),
        )
    ]
    heads_plane = pack_segments(enc.heads, enc.head_bits, n_per_packet)
    tails_plane = pack_segments(enc.tails, enc.tail_bits, n_per_packet)
    sizes = [
        (count, packed_size(count, enc.head_bits), packed_size(count, enc.tail_bits))
        for count in map(heads_plane.segment_count, range(heads_plane.num_segments))
    ]
    buf = bytearray(sum(GRADIENT_HEADER_BYTES + h + t for _, h, t in sizes))
    views = memoryview(buf).toreadonly()
    pos = 0
    for chunk, (count, head_bytes, tail_bytes) in enumerate(sizes):
        chunk_header = header(chunk + 1, chunk * n_per_packet, count, int_flag)
        chunk_header.pack_into(buf, pos)
        cursor = pos + GRADIENT_HEADER_BYTES
        hs = chunk * heads_plane.seg_bytes
        buf[cursor : cursor + head_bytes] = heads_plane.buffer[hs : hs + head_bytes]
        cursor += head_bytes
        ts = chunk * tails_plane.seg_bytes
        buf[cursor : cursor + tail_bytes] = tails_plane.buffer[ts : ts + tail_bytes]
        cursor += tail_bytes
        packets.append(
            Packet(
                src=src,
                dst=dst,
                payload=views[pos:cursor],
                flow_id=flow_id,
                seq=chunk + 1,
                int_ext=band(),
            )
        )
        pos = cursor
    return packets


def assert_same_packets(new: List[Packet], old: List[Packet]) -> None:
    assert len(new) == len(old)
    for new_pkt, old_pkt in zip(new, old):
        assert bytes(new_pkt.payload) == bytes(old_pkt.payload)
        assert new_pkt.grad_header == old_pkt.grad_header
        for field in ("src", "dst", "seq", "priority", "wire_size", "flow_id", "seq_total"):
            assert getattr(new_pkt, field) == getattr(old_pkt, field), field
        assert (new_pkt.int_ext is None) == (old_pkt.int_ext is None)
        if new_pkt.int_ext is not None:
            assert new_pkt.int_ext.capacity == old_pkt.int_ext.capacity
            assert new_pkt.grad_header.has_int


@pytest.fixture
def int_enabled():
    enable_int(capacity=4)
    try:
        yield
    finally:
        disable_int()


class TestStridedStoresMatchThePerPacketLoop:
    """The seams the stores introduce: no full chunk at all, no short
    tail, a one-coordinate tail, planes that are not 1 + 31 bits wide
    (the multi-level splits, P + Q != 32), the INT flag in every header,
    and each MTU's row stride."""

    WIDTHS = [(1, 31), (1, 7), (2, 14), (8, 24), (3, 13), (4, 28)]

    @pytest.mark.parametrize("mtu", [100, 1500, 9000])
    @pytest.mark.parametrize("head_bits, tail_bits", WIDTHS)
    def test_chunk_count_seams(self, mtu, head_bits, tail_bits):
        n = coords_per_packet(mtu, head_bits, tail_bits)
        for length in (1, n - 1, n, n + 1, 3 * n, 3 * n + 1, 4 * n - 1):
            enc = make_encoded(length, head_bits, tail_bits, seed=length)
            new = packetize(enc, "tx", "rx", mtu=mtu, flow_id=9)
            assert_same_packets(new, loop_packetize(enc, "tx", "rx", mtu=mtu, flow_id=9))
            assert len(new) == 1 + -(-length // n)
            assert new[-1].grad_header.coord_count == length - (len(new) - 2) * n
            assert sum(p.grad_header.coord_count for p in new) == length

    @pytest.mark.parametrize("mtu", [100, 1500])
    def test_int_flag_in_every_header_and_band_attached(self, mtu, int_enabled):
        n = coords_per_packet(mtu, 1, 31)
        for length in (1, n, 2 * n + 1):
            enc = make_encoded(length, 1, 31, seed=3)
            new = packetize(enc, "tx", "rx", mtu=mtu)
            assert_same_packets(new, loop_packetize(enc, "tx", "rx", mtu=mtu))
            for pkt in new:
                assert pkt.grad_header.has_int and pkt.int_ext is not None
                assert pkt.payload[3] & FLAG_INT
                assert pkt.wire_size == 42 + len(pkt.payload) + pkt.int_ext.wire_bytes

    def test_real_codecs(self):
        grad = np.random.default_rng(8).standard_normal(5000)
        for name in ("sign", "sq", "sd", "rht", "eden"):  # eden: 4 + 28 bits
            enc = codec_by_name(name, root_seed=2).encode(grad, epoch=1, message_id=4)
            for mtu in (100, 1500, 9000):
                assert_same_packets(
                    packetize(enc, "a", "b", mtu=mtu), loop_packetize(enc, "a", "b", mtu=mtu)
                )

    @pytest.mark.parametrize("mtu", [100, 1500, 9000])
    def test_payloads_are_readonly_views_of_one_buffer(self, mtu):
        n = coords_per_packet(mtu, 1, 31)
        packets = packetize(make_encoded(2 * n + 1, 1, 31), mtu=mtu)
        buffer = packets[1].payload.obj
        assert isinstance(buffer, bytearray)
        for pkt in packets[1:]:
            assert isinstance(pkt.payload, memoryview) and pkt.payload.readonly
            assert pkt.payload.obj is buffer
            with pytest.raises(TypeError):
                pkt.payload[0] = 0
        # Back to back, in order, nothing between or after them.
        assert b"".join(p.payload for p in packets[1:]) == bytes(buffer)
        trimmed = packets[1].trim()
        assert isinstance(trimmed.payload, bytes)
        assert trimmed.payload[32:] == bytes(packets[1].payload[32 : 32 + packed_size(n, 1)])
        assert packets[1].payload.readonly and not packets[1].is_trimmed

    def test_hypothesis_geometries_against_the_loop(self):
        @given(geometries, st.sampled_from([100, 256, 1500]))
        @settings(max_examples=60, deadline=None)
        def check(geom, mtu):
            length, head_bits, tail_bits, seed = geom
            enc = make_encoded(length, head_bits, tail_bits, seed)
            assert_same_packets(packetize(enc, "s", "d", mtu=mtu), loop_packetize(enc, "s", "d", mtu=mtu))

        check()


class TestRowGroupSeams:
    """Messages of G − 1, G, G + 1 and 2G + 3 data packets (``ROW_GROUP``
    packets are packed and unpacked a call): the payloads equal the
    per-packet loop's, and a trimmed, dropped, duplicated, shuffled
    arrival stores what the flat per-coordinate scatter stores."""

    COUNTS = (ROW_GROUP - 1, ROW_GROUP, ROW_GROUP + 1, 2 * ROW_GROUP + 3)

    @pytest.mark.parametrize("head_bits, tail_bits", [(1, 31), (3, 13), (8, 24)])
    @pytest.mark.parametrize("chunks", COUNTS)
    def test_packetize_and_depacketize_across_the_boundary(self, chunks, head_bits, tail_bits):
        n = coords_per_packet(100, head_bits, tail_bits)
        for last in (1, n // 2, n):
            enc = make_encoded((chunks - 1) * n + last, head_bits, tail_bits, seed=chunks)
            packets = packetize(enc, "tx", "rx", mtu=100, flow_id=2)
            assert len(packets) == chunks + 1
            assert_same_packets(packets, loop_packetize(enc, "tx", "rx", mtu=100, flow_id=2))
            assert_messages_equal(depacketize(packets), reference_depacketize(packets))
            rng = np.random.default_rng(chunks + last)
            received = [packets[0]]
            for pkt, fate in zip(packets[1:], rng.integers(0, 4, size=chunks)):
                if fate in (0, 3):
                    received.append(pkt)
                if fate in (1, 3):
                    received.append(pkt.trim())
            received = [received[i] for i in rng.permutation(len(received))]
            assert_same_store(received, enc.length)
            assert_messages_equal(
                depacketize(received, length=enc.length),
                reference_depacketize(received, length=enc.length),
            )

    def test_misaligned_packets_across_the_boundary(self):
        """Hand-built packets off the ``coord_count`` grid take the
        one-index-per-coordinate store, group by group as well."""
        rng = np.random.default_rng(12)
        count, packets = 8, 2 * ROW_GROUP + 3
        received = [hand_packet(3 + i * count, count, rng, trim=i % 5 == 0) for i in range(packets)]
        assert_same_store(received, 3 + packets * count + 2)


class TestMessageTooLargeForItsHeader:
    """A header field that does not fit its wire width used to surface as
    ``struct.error`` from the 65,536th ``pack_into``; now it is a
    ``ValueError`` naming the field before anything is packed."""

    def test_too_many_chunks(self):
        n = coords_per_packet(100, 1, 31)  # 6 coordinates a packet
        fits = make_encoded(0xFFFF * n, 1, 31)
        packets = packetize(fits, mtu=100)
        assert len(packets) == 0xFFFF + 1
        assert packets[-1].grad_header.chunk_index == 0xFFFF
        too_long = make_encoded(0xFFFF * n + 1, 1, 31)
        with pytest.raises(ValueError, match=r"chunk_index=65536 .*limit 65535"):
            packetize(too_long, mtu=100)

    @pytest.mark.parametrize(
        "field, value, limit",
        [
            ("epoch", 70_000, 0xFFFF),
            ("epoch", -1, 0xFFFF),
            ("message_id", 2**32, 0xFFFFFFFF),
            ("seed", 2**64, 2**64 - 1),
            ("seed", -5, 2**64 - 1),
        ],
    )
    def test_metadata_fields(self, field, value, limit):
        enc = make_encoded(50, 1, 31)
        setattr(enc.metadata, field, value)
        with pytest.raises(ValueError, match=rf"{field}={value} .*limit {limit}\b"):
            packetize(enc)

    def test_fails_before_packing(self, monkeypatch):
        import repro.core.packetizer as packetizer_module

        def boom(*args, **kwargs):
            raise AssertionError("pack_segments ran before the header check")

        monkeypatch.setattr(packetizer_module, "pack_segments", boom)
        enc = make_encoded(50, 1, 31)
        enc.metadata.epoch = 70_000
        with pytest.raises(ValueError, match="epoch=70000"):
            packetize(enc)


# -- the array pass against the header loop ------------------------------------


def _outcome(depacketize_fn, packets, length):
    try:
        return depacketize_fn(packets, length=length)
    except Exception as error:  # the loop's failures, whatever their type
        return f"{type(error).__name__}: {error}"


def assert_same_outcome(packets: List[Packet], length: Optional[int] = None):
    """``depacketize``'s one numpy pass over the headers against the per-packet
    header loop it replaced (``depacketize_oracle``): the same message,
    plane for plane, or the same error with the same words."""
    new = _outcome(depacketize, packets, length)
    old = _outcome(loop_depacketize, packets, length)
    if isinstance(new, str) or isinstance(old, str):
        assert new == old
        return None
    assert_same_message(new, old)
    return new


def assert_same_message(new: GradientMessage, old: GradientMessage) -> None:
    """Plane for plane, field for field, the same message."""
    for plane in ("heads", "tails", "trimmed", "missing", "depth"):
        got, want = getattr(new, plane), getattr(old, plane)
        if want is None:
            assert got is None, plane
        else:
            assert got.dtype == want.dtype and np.array_equal(got, want), plane
    for field in ("codec_id", "head_bits", "tail_bits", "length"):
        assert getattr(new, field) == getattr(old, field), field
    assert (new.metadata is None) == (old.metadata is None)
    if new.metadata is not None:
        assert new.metadata.to_bytes() == old.metadata.to_bytes()


ROTATING = ("rht", "eden", "multilevel")


def oracle_codec(name: str):
    return codec_by_name(name, root_seed=1, **({"row_size": 256} if name in ROTATING else {}))


@st.composite
def received_sets(draw):
    """One message of any registered codec, and what reached the receiver:
    packets dropped, cut at any plane boundary, duplicated before or after
    a cut copy, reordered, the metadata packet lost, ``length`` given."""
    name = draw(st.sampled_from(available_codecs()))
    length = draw(st.integers(min_value=1, max_value=1500))
    mtu = draw(st.sampled_from([200, 512, 1500]))
    grad = np.random.default_rng(draw(st.integers(0, 2**16))).standard_normal(length)
    packets = packetize(oracle_codec(name).encode(grad, epoch=2, message_id=5), "s", "d", mtu=mtu)
    received = [packets[0]] if draw(st.booleans()) or len(packets) == 1 else []
    for pkt in packets[1:]:
        fate = draw(st.sampled_from(["keep", "keep", "drop", "cut", "cut first", "cut after"]))
        cut = pkt.cut(draw(st.sampled_from([0, 1, 8, 16])))
        if fate == "keep" or cut is None:
            received.append(pkt)
        elif fate == "cut":
            received.append(cut)
        elif fate == "cut first":
            received += [cut, pkt]
        elif fate == "cut after":
            received += [pkt, cut]
    if draw(st.booleans()):
        received = draw(st.permutations(received))
    encoded = _encoded_length(packets)
    length_arg = draw(st.sampled_from([None, encoded, encoded + 37, max(encoded - 37, 0)]))
    return list(received), length_arg


def _encoded_length(packets: List[Packet]) -> int:
    return GradientMetadata.from_bytes(packets[0].payload[GRADIENT_HEADER_BYTES:]).encoded_length


class TestArrayPassMatchesTheHeaderLoop:
    """Same arrays or the same ``ValueError`` text as the per-packet loop,
    for the same first offending packet."""

    @settings(max_examples=150, deadline=None)
    @given(received_sets())
    def test_drops_cuts_duplicates_reordering(self, case):
        packets, length = case
        assert_same_outcome(packets, length)

    @settings(max_examples=150, deadline=None)
    @given(received_sets(), st.data())
    def test_flipped_header_bits_and_short_payloads(self, case, data):
        """``test_hostile_bytes.py``'s mutations, one to three at a time, so
        that the first offender and the words for it are both at stake."""
        packets, length = case
        if not packets:
            return
        for _ in range(data.draw(st.integers(1, 3))):
            at = data.draw(st.integers(0, len(packets) - 1))
            pkt = packets[at]
            bits = 8 * min(GRADIENT_HEADER_BYTES, len(pkt.payload))
            if bits and data.draw(st.integers(0, 4)):
                packets[at] = flip(pkt, data.draw(st.integers(0, bits - 1)))
            else:
                cut = data.draw(st.integers(0, len(pkt.payload)))
                packets[at] = Packet(src="s", dst="d", payload=bytes(pkt.payload[:cut]))
        assert_same_outcome(packets, length)

    @pytest.mark.parametrize("name", ["rht", "multilevel"])
    def test_every_header_bit_of_a_cut_message(self, name):
        """Exhaustively, every header bit of the metadata packet, a full
        packet, a cut one and the short final chunk."""
        grad = np.random.default_rng(4).standard_normal(1000)
        packets = packetize(oracle_codec(name).encode(grad, epoch=1, message_id=3), "s", "d", mtu=512)
        packets[2] = packets[2].cut(8 if name == "multilevel" else 0)
        for i in (0, 1, 2, len(packets) - 1):
            for bit in range(8 * GRADIENT_HEADER_BYTES):
                mutated = packets[:i] + [flip(packets[i], bit)] + packets[i + 1 :]
                assert_same_outcome(mutated)

    @given(st.lists(st.tuples(st.integers(0, 300), st.integers(0, 40), st.booleans()), max_size=8),
           st.sampled_from([None, 240, 400]), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_hand_built_packets_on_and_off_the_grid(self, slots, length, with_metadata):
        rng = np.random.default_rng(len(slots))
        packets = [hand_packet(lo, count, rng, trim=trim) for lo, count, trim in slots]
        if with_metadata:
            meta = packetize(make_encoded(240, 1, 31, seed=0), "s", "d")[0]
            packets.insert(len(packets) // 2, meta)
        if packets:
            assert_same_outcome(packets, length)

    def test_two_messages_two_metadata_packets_and_a_split_off_the_boundaries(self):
        first = packetize(make_encoded(900, 1, 31, seed=1), "s", "d", mtu=256)
        other = packetize(make_encoded(900, 1, 31, seed=2), "s", "d", mtu=256)
        forged = Packet(src="s", dst="d", payload=bytes(first[0].payload[:-1]) + b"\x00")
        grad = np.random.default_rng(5).standard_normal(900)
        layered = packetize(oracle_codec("multilevel").encode(grad), "s", "d", mtu=512)
        header = dataclasses.replace(layered[2].grad_header, head_bits=2, tail_bits=30)
        off_boundary = Packet(
            src="s", dst="d", payload=header.to_bytes() + bytes(layered[2].payload[32:])
        )
        for packets in (
            layered[:2] + [off_boundary] + layered[3:],
            [off_boundary] + layered[1:],
            first[:3] + other[3:],
            first + [forged],
            [forged] + first[1:4] + [first[0], other[5]],
            first[:2] + [other[0]] + first[2:],
            [flip(first[1], 0)],  # a bad magic in every header of the set
        ):
            assert_same_outcome(packets)


# -- many sets and many messages at once ---------------------------------------


@st.composite
def several_sets(draw):
    """Two to five ``received_sets``, with INT on for all or for none."""
    with_int = draw(st.booleans())
    if with_int:
        enable_int(capacity=4)
    try:
        return [draw(received_sets()) for _ in range(draw(st.integers(2, 5)))]
    finally:
        if with_int:
            disable_int()


def assert_each_set_reads_as_alone(sets):
    """``depacketize_many`` against the header loop run on each set alone:
    every message the same, or, when a set fails alone, the error of the
    first such set in the given order, word for word."""
    alone = [_outcome(loop_depacketize, packets, length) for packets, length in sets]
    together = _outcome(
        lambda many, length: depacketize_many(many, length),
        [packets for packets, _ in sets],
        [length for _, length in sets],
    )
    failed = [outcome for outcome in alone if isinstance(outcome, str)]
    if failed:
        assert together == failed[0]
        return
    assert not isinstance(together, str), together
    assert len(together) == len(alone)
    for new, old in zip(together, alone):
        assert_same_message(new, old)


class TestManySetsMatchTheHeaderLoopAlone:
    """``depacketize_many`` reads every set as the per-packet header loop
    reads it alone: sets of all six codecs side by side, shuffled,
    duplicated, cut and dropped, with INT on and off."""

    @settings(max_examples=100, deadline=None)
    @given(several_sets())
    def test_every_set_as_alone(self, sets):
        assert_each_set_reads_as_alone(sets)

    @settings(max_examples=100, deadline=None)
    @given(several_sets(), st.data())
    def test_a_hostile_set_among_clean_ones(self, sets, data):
        """One or two sets get ``test_hostile_bytes.py``'s mutations: the
        error is the one the first of them raises alone."""
        for at in data.draw(st.lists(st.integers(0, len(sets) - 1), min_size=1, max_size=2)):
            packets, length = sets[at]
            if not packets:
                continue
            packets = list(packets)
            i = data.draw(st.integers(0, len(packets) - 1))
            bits = 8 * min(GRADIENT_HEADER_BYTES, len(packets[i].payload))
            if bits and data.draw(st.integers(0, 4)):
                packets[i] = flip(packets[i], data.draw(st.integers(0, bits - 1)))
            else:
                cut = data.draw(st.integers(0, len(packets[i].payload)))
                packets[i] = Packet(src="s", dst="d", payload=bytes(packets[i].payload[:cut]))
            sets[at] = packets, length
        assert_each_set_reads_as_alone(sets)

    def test_the_first_bad_set_in_order_wins(self):
        grad = np.random.default_rng(6).standard_normal(900)
        clean = packetize(oracle_codec("rht").encode(grad, epoch=1, message_id=2), "s", "d")
        short = [clean[0], Packet(src="s", dst="d", payload=bytes(clean[1].payload[:10]))]
        stranger = clean[:2] + packetize(make_encoded(900, 1, 31, seed=4), "s", "d")[2:3]
        for order in ((clean, short, stranger), (clean, stranger, short), ([], clean, short)):
            assert_each_set_reads_as_alone([(packets, None) for packets in order])
        # A set that fails only a late check (after the whole set is read),
        # alone and before one that fails an early one (at its offending
        # packet).
        longer = Packet(src="s", dst="d", payload=bytes(clean[2].payload) + b"\0")
        second = clean[2].grad_header.coord_offset
        moved = dataclasses.replace(clean[1].grad_header, coord_offset=second)
        shifted = Packet(src="s", dst="d", payload=moved.to_bytes() + bytes(clean[1].payload[32:]))
        truncated = Packet(src="s", dst="d", payload=bytes(clean[0].payload[:-4]))
        final = clean[-1].grad_header
        renumbered = dataclasses.replace(final, chunk_index=final.chunk_index + 1).to_bytes()
        other_final = Packet(src="s", dst="d", payload=renumbered + bytes(clean[-1].payload[32:]))
        late = [
            ("payload bytes", [*clean[:2], longer, *clean[3:]], None),
            ("off the message's grid", [clean[0], shifted, *clean[2:]], None),
            ("off the message's grid", [clean[0], clean[-1], other_final], None),  # no full packet
            ("beyond length 100", clean[1:], 100),
            ("metadata payload truncated", [truncated, *clean[1:]], None),
        ]
        for words, packets, length in late:
            with pytest.raises(ValueError, match=words):
                loop_depacketize(packets, length)
            for early in ([], [(short, None)], [(stranger, None)]):
                assert_each_set_reads_as_alone([(clean, None), (packets, length), *early])

    def test_each_set_keeps_the_order_of_its_stores(self):
        """Two sets file the same two overlapping stores of one depth in
        opposite orders: each keeps its own last writer."""
        rng = np.random.default_rng(14)
        off_grid, on_grid = hand_packet(3, 8, rng), hand_packet(0, 16, rng)
        assert_each_set_reads_as_alone([([off_grid, on_grid], None), ([on_grid, off_grid], None)])

    def test_clean_sets_of_one_geometry_are_one_kernel_call_a_plane(self, monkeypatch):
        calls = []
        original = unpack_batch

        def spy(*args, **kwargs):
            calls.append(args[1:3])
            return original(*args, **kwargs)

        import repro.core.packetizer as packetizer_module

        monkeypatch.setattr(packetizer_module, "unpack_batch", spy)
        codec = oracle_codec("rht")
        grads = np.random.default_rng(9).standard_normal((8, 3224))
        wires = [packetize(codec.encode(g, epoch=0, message_id=i), "s", "d") for i, g in enumerate(grads)]
        messages = depacketize_many(wires)
        assert len(calls) == 2  # heads and tails, for all eight messages
        for message, wire in zip(messages, wires):
            assert_same_message(message, loop_depacketize(wire))

    def test_no_sets(self):
        assert depacketize_many([]) == []

    @pytest.mark.parametrize("given", [1, 4])
    def test_one_length_a_set(self, given):
        wire = packetize(make_encoded(900, 1, 31), "s", "d")
        with pytest.raises(ValueError, match=f"^3 packet sets but {given} lengths$"):
            depacketize_many([wire] * 3, [None] * given)


@st.composite
def outgoing_messages(draw):
    """One to six messages of any codec, lengths from a short list so that
    messages of one geometry meet."""
    messages = []
    for flow in range(draw(st.integers(1, 6))):
        name = draw(st.sampled_from(available_codecs()))
        length = draw(st.sampled_from([1, 37, 356, 900, 3224]))
        grad = np.random.default_rng(draw(st.integers(0, 2**16))).standard_normal(length)
        encoded = oracle_codec(name).encode(grad, epoch=3, message_id=flow)
        messages.append((encoded, f"h{flow}", "agg", 500 + flow))
    return messages


class TestManyMessagesMatchSequentialCalls:
    @settings(max_examples=80, deadline=None)
    @given(outgoing_messages(), st.sampled_from([200, 512, 1500]), st.booleans())
    def test_field_by_field_and_ids_in_the_same_order(self, messages, mtu, with_int):
        if with_int:
            enable_int(capacity=4)
        try:
            wave = packetize_many(messages, mtu=mtu)
            one_by_one = [packetize(*message[:3], mtu=mtu, flow_id=message[3]) for message in messages]
        finally:
            if with_int:
                disable_int()
        assert len(wave) == len(one_by_one)
        for new, old in zip(wave, one_by_one):
            assert_same_packets(new, old)
        # Ids run on from packet to packet, message after message, in both.
        for packets in (wave, one_by_one):
            ids = [pkt.packet_id for wire in packets for pkt in wire]
            assert ids == list(range(ids[0], ids[0] + len(ids)))

    def test_a_message_too_big_fails_before_anything_is_packed(self, monkeypatch):
        import repro.core.packetizer as packetizer_module

        def boom(*args, **kwargs):
            raise AssertionError("pack_segments ran before the header check")

        monkeypatch.setattr(packetizer_module, "pack_segments", boom)
        fits, too_big = make_encoded(50, 1, 31), make_encoded(50, 1, 31)
        too_big.metadata.epoch = 70_000
        with pytest.raises(ValueError, match="epoch=70000"):
            packetize_many([(fits, "a", "b", 1), (too_big, "a", "b", 2)])

    def test_no_messages(self):
        assert packetize_many([]) == []
