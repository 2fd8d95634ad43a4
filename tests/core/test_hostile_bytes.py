"""Hostile bytes: a receiver reads every header from the payload that arrived.

Whatever is done to a packet set on its way — a header bit flipped, a
payload cut short, a packet dropped, duplicated, reordered, taken from
another message, stamped with the INT flag — the outcome is a typed
``ValueError`` or a decode bit-identical to the clean decode of the same
surviving packets; never a wrong decode.  Covered for ``rht``, ``sq`` and
the multi-level codec, full and trimmed.

Bit flips in the *plane* bytes are out of scope: they change what a packet
carries, not what it claims to be, and catching them is
``Packet.verify()``'s job (a sealed packet's CRC32 covers its payload).
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import codec_by_name, decode_packets, depacketize, packetize
from repro.packet import FLAG_INT, FLAG_TRIMMED, GRADIENT_HEADER_BYTES, GradientHeader, Packet

CODECS = ("rht", "sq", "multilevel")
COORDS = 3224  # rht pads it to 4 rows of 1,024: 12 data packets


def make_codec(name):
    return codec_by_name(name, root_seed=1, **({} if name == "sq" else {"row_size": 1024}))


def message(name, message_id=1, trim=False):
    """The packets of one message; with ``trim`` every other data packet
    trimmed (the multi-level code's alternately to 1 and 8 bits)."""
    codec = make_codec(name)
    grad = np.random.default_rng(message_id).standard_normal(COORDS)
    enc = codec.encode(grad, epoch=3, message_id=message_id)
    packets = packetize(enc, "a", "b")
    if trim:
        for i in range(1, len(packets), 2):
            packets[i] = packets[i].trim(1 if i % 4 == 1 else 8)
    return codec, packets


def decode(name, codec, packets):
    """The decoded gradient's bytes (bit-identical means equal bytes)."""
    return decode_packets(packets, codec).tobytes()


def with_payload(pkt, payload):
    return Packet(src=pkt.src, dst=pkt.dst, payload=payload, flow_id=pkt.flow_id, seq=pkt.seq)


def flip(pkt, bit):
    raw = bytearray(pkt.payload)
    raw[bit // 8] ^= 1 << (bit % 8)
    return with_payload(pkt, bytes(raw))


def outcome(name, codec, packets):
    try:
        return decode(name, codec, packets)
    except ValueError:
        return ValueError


class TestHeaderBitFlips:
    @pytest.mark.parametrize("trim", [False, True])
    @pytest.mark.parametrize("name", CODECS)
    def test_every_bit_of_every_header(self, name, trim):
        """All 256 header bits of every packet, one flip at a time."""
        codec, packets = message(name, trim=trim)
        clean = decode(name, codec, packets)
        harmless = set()
        for i, pkt in enumerate(packets):
            for bit in range(8 * GRADIENT_HEADER_BYTES):
                mutated = packets[:i] + [flip(pkt, bit)] + packets[i + 1 :]
                got = outcome(name, codec, mutated)
                assert got in (ValueError, clean), f"packet {i}, header bit {bit}: wrong decode"
                if got is not ValueError:
                    harmless.add(bit // 8)
        # Only the flags byte (INT and unassigned bits) and, in the metadata
        # packet, chunk index / offset / count — which it does not use —
        # may change without consequence.
        assert harmless <= {3} | set(range(14, 24))

    @pytest.mark.parametrize("name", CODECS)
    def test_trimmed_flag_set_on_a_full_payload(self, name):
        codec, packets = message(name)
        raw = bytearray(packets[4].payload)
        raw[3] |= FLAG_TRIMMED
        with pytest.raises(ValueError, match="payload bytes"):
            decode(name, codec, packets[:4] + [with_payload(packets[4], bytes(raw))] + packets[5:])

    @pytest.mark.parametrize("name", CODECS)
    def test_trimmed_flag_cleared_on_a_trimmed_payload(self, name):
        codec, packets = message(name, trim=True)
        raw = bytearray(packets[5].payload)
        assert raw[3] & FLAG_TRIMMED
        raw[3] &= ~FLAG_TRIMMED
        mutated = packets[:5] + [with_payload(packets[5], bytes(raw))] + packets[6:]
        with pytest.raises(ValueError, match="payload bytes|unsupported depth"):
            decode(name, codec, mutated)

    @pytest.mark.parametrize("name", CODECS)
    def test_count_shrunk_inside_the_last_head_byte(self, name):
        """The flip a length check cannot see: a trimmed packet's 1-bit heads
        fill the same bytes for 355 coordinates as for 356."""
        codec, packets = message(name, trim=True)
        header = packets[1].grad_header
        assert header.trimmed and header.head_bits == 1 and header.coord_count == 356
        forged = dataclasses.replace(header, coord_count=355).to_bytes()
        raw = forged + bytes(packets[1].payload[GRADIENT_HEADER_BYTES:])
        with pytest.raises(ValueError, match="off the message's grid"):
            decode(name, codec, [packets[0], with_payload(packets[1], raw)] + packets[2:])


class TestMixedMessages:
    """Packets of two messages in one set are refused, naming the field
    the two headers disagree on (the bug: ``p1[:7] + p2[7:]`` decoded)."""

    def test_two_real_messages(self):
        codec, first = message("rht", message_id=1)
        _, second = message("rht", message_id=2)
        with pytest.raises(ValueError, match="message_id 1 != 2"):
            depacketize(first[:7] + second[7:])

    @pytest.mark.parametrize(
        "field, value",
        [("codec_id", 77), ("message_id", 9), ("epoch", 4), ("seed", 12345), ("version", 2)],
    )
    @pytest.mark.parametrize("name", CODECS)
    def test_one_field_differs(self, name, field, value):
        codec, packets = message(name)
        other = []
        for pkt in packets[7:]:
            header = dataclasses.replace(pkt.grad_header, **{field: value})
            payload = header.to_bytes() + bytes(pkt.payload[GRADIENT_HEADER_BYTES:])
            other.append(with_payload(pkt, payload))
        with pytest.raises(ValueError, match=rf"two messages in one set: {field} "):
            decode(name, codec, packets[:7] + other)

    @pytest.mark.parametrize("name", CODECS)
    def test_two_different_metadata_packets(self, name):
        codec, packets = message(name)
        body = bytearray(packets[0].payload)
        body[-1] ^= 0xFF  # same header, one byte of the body changed
        with pytest.raises(ValueError, match="two different metadata packets"):
            decode(name, codec, packets + [with_payload(packets[0], bytes(body))])


# -- set mutations -------------------------------------------------------------


@st.composite
def mutations(draw):
    """A codec, trimmed or not, and one thing done to its packet set."""
    name = draw(st.sampled_from(CODECS))
    trim = draw(st.booleans())
    kind = draw(st.sampled_from(["truncate", "duplicate", "drop", "reorder", "mix", "int"]))
    return name, trim, kind, draw(st.randoms(use_true_random=False))


class TestSetMutations:
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(mutations())
    def test_typed_error_or_the_clean_decode_of_the_survivors(self, case):
        name, trim, kind, rng = case
        codec, packets = message(name, trim=trim)
        i = rng.randrange(len(packets))
        survivors = list(packets)
        if kind == "truncate":
            pkt = packets[i]
            cut = rng.randrange(len(pkt.payload))
            mutated = packets[:i] + [with_payload(pkt, bytes(pkt.payload[:cut]))] + packets[i + 1 :]
        elif kind == "duplicate":
            mutated = packets + [packets[i]]
        elif kind == "drop":
            mutated = survivors = packets[:i] + packets[i + 1 :]
        elif kind == "reorder":
            mutated = rng.sample(packets, len(packets))
        elif kind == "mix":  # message 1's first i packets, message 2's others
            i = max(i, 1)
            _, other = message(name, message_id=2, trim=trim)
            mutated = packets[:i] + other[i:]
        else:  # "int": one header claims an INT band the others do not
            raw = bytearray(packets[i].payload)
            raw[3] |= FLAG_INT
            mutated = packets[:i] + [with_payload(packets[i], bytes(raw))] + packets[i + 1 :]
        got = outcome(name, codec, mutated)
        if kind == "mix":
            assert got is ValueError
        elif kind == "drop" and i > 0:
            assert got == decode(name, codec, survivors)  # a lost data packet is missing data
        elif kind in ("duplicate", "reorder", "int"):
            assert got == decode(name, codec, packets)  # nothing lost: no error either
        else:
            assert got in (ValueError, outcome(name, codec, survivors))


def test_a_header_needs_32_bytes():
    _, packets = message("rht")
    with pytest.raises(ValueError, match="needs 32 bytes, got 31"):
        depacketize(packets[:3] + [with_payload(packets[3], bytes(packets[3].payload[:31]))])


def test_the_first_packet_is_checked_too():
    _, packets = message("sq")
    raw = bytearray(packets[0].payload)
    raw[0] ^= 0x01
    with pytest.raises(ValueError, match="bad magic"):
        depacketize([with_payload(packets[0], bytes(raw))] + packets[1:])
    assert GradientHeader.from_bytes(packets[0].payload).is_metadata
