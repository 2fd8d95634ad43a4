"""Golden digests of the gradient byte path, pinned before it was optimised.

The digests below were generated at the commit *before* the word-level
bit packer, the blocked FWHT and ``depacketize``'s row scatter landed
(numpy 2.x, ``default_rng`` PCG64).  Each of those kernels promises the
same output bits from less memory traffic; this file is the end-to-end
half of that promise (the per-kernel halves compare against slow
reference implementations in ``tests/packet``, ``tests/transforms`` and
``test_packetizer_equivalence.py``).

The message is deliberately awkward: 100,003 heavy-tailed coordinates, so
the last packet is short, the last RHT row is padded, and the receiver
sees full, trimmed and missing packets at once.
"""

import hashlib

import numpy as np
import pytest

from repro.core import codec_by_name, decode_packets, depacketize, packetize

LENGTH = 100_003
INPUT_SHA256 = "9eef6a0990737ccc236ea65286ca674de0a0dc460af36a2453578640e4090c9b"

CODECS = {
    "sign": {},
    "sq": {},
    "sd": {},
    "rht": {"row_size": 4096},
}

#: codec -> sha256 of (wire packets, depacketized message, decoded float64).
GOLDEN = {
    "sign": (
        "3f16b0e4394cd7f4edff979e3eef7fef29966644f014e04df6bfe1d5a0f4be02",
        "d86b9ad7d9c82826ba309dcbd698b48c432da44a76ba217f312cda04f72e1de6",
        "341bb49f181274f8c7175781bbc327240a873b42ab8d3689b6ddd9dd58219f9b",
    ),
    "sq": (
        "be166cb6c6a0c913cfe195d2da1b569d3e4867ba98987bbd1134b8293334ef62",
        "a406125ce6652de9ba65c22c36d705e6a21529c03c98cc77d6d1f73405909be3",
        "fe1941c9fe0a04e772ff49c13c1b745d06b63164d11247013c8d6a5510fd22ab",
    ),
    "sd": (
        "242536245df58abafeeaff63130d7dac0caba6e78b294ac0821f8f2e37413f2b",
        "92051f8af6182578ae0ad72eb43c53558ca139f380235ec48b174bf18cd45424",
        "a6889bbfd95b4322305dfad45307551a6c07a8bb4e944f7b02f881bc7b4b969f",
    ),
    "rht": (
        "c8de96b4670beb675eda159a7f9c95db036b02379fe686ae85d26d25078b421f",
        "edbb5ba2e73e70987569b1e467da088305d543ea1f90a518f33ccd163c706395",
        "c5ff95167ed05ccba4ca9e81479a77cce8f88fb921f55aff6ab6cab504f23490",
    ),
}


#: sha256 of the Section 5.1 multi-level code's (wire packets, remnants after
#: a drop / 8-bit cut / 1-bit cut pattern, decoded float64).
MULTILEVEL_GOLDEN = (
    "4dc2a92551d88d3e6fa77ad62690b4172caad8051425bfb88aad9a67e8a38c95",
    "f66c579228498a8fd7d3b36fe8e62a349d6a930d070ae33655571382d4f3be28",
    "20f8994c5a0083f300c958cb3153dda4095327a30be0d57b067a738bd46b6f4d",
)


def _gradient() -> np.ndarray:
    return np.random.default_rng(20241118).standard_t(df=3, size=LENGTH)


def _digests(name: str) -> tuple[str, str, str]:
    codec = codec_by_name(name, root_seed=5, **CODECS[name])
    enc = codec.encode(_gradient(), epoch=2, message_id=9)
    packets = packetize(enc, "w0", "ps", flow_id=3)

    wire = hashlib.sha256()
    for pkt in packets:
        wire.update(bytes(pkt.payload))
        wire.update(repr((pkt.seq, pkt.priority, pkt.wire_size)).encode())

    # Metadata packet always arrives; every 7th data packet is dropped,
    # every 3rd of the others is trimmed by the switch.
    received = [packets[0]]
    for i, pkt in enumerate(packets[1:]):
        if i % 7 == 6:
            continue
        received.append(pkt.trim() if i % 3 == 2 else pkt)
    msg = depacketize(received, length=enc.length)
    assert msg.trimmed.any() and msg.missing.any() and not msg.trimmed.all()

    message = hashlib.sha256()
    for plane in (msg.heads, msg.tails, msg.trimmed, msg.missing):
        message.update(plane.dtype.str.encode())
        message.update(plane.tobytes())

    decoded = codec.decode(msg.to_encoded(), trimmed=msg.trimmed, missing=msg.missing)
    assert decoded.dtype == np.float64 and decoded.shape == (LENGTH,)
    return wire.hexdigest(), message.hexdigest(), hashlib.sha256(decoded.tobytes()).hexdigest()


def _packets_digest(packets) -> str:
    digest = hashlib.sha256()
    for pkt in packets:
        digest.update(bytes(pkt.payload))
        digest.update(repr((pkt.seq, pkt.priority, pkt.wire_size)).encode())
    return digest.hexdigest()


def _multilevel_digests() -> tuple[str, str, str]:
    codec = codec_by_name("multilevel", root_seed=5, row_size=4096)
    enc = codec.encode(_gradient(), epoch=2, message_id=9)
    packets = packetize(enc, "w0", "ps", flow_id=3)

    # Metadata packet always arrives; every 7th data packet is dropped,
    # every 3rd of the others is cut to 8 bits, and every 5th (whether
    # cut already or not) to 1 bit.
    received = [packets[0]]
    for i, pkt in enumerate(packets[1:]):
        if i % 7 == 6:
            continue
        if i % 3 == 2:
            pkt = pkt.trim(8)
        if i % 5 == 4:
            pkt = pkt.trim(1)
        received.append(pkt)
    assert set(np.unique(depacketize(received).depth)) == {0, 1, 8, 32}

    decoded = decode_packets(received)
    assert decoded.dtype == np.float64 and decoded.shape == (LENGTH,)
    return (
        _packets_digest(packets),
        _packets_digest(received),
        hashlib.sha256(decoded.tobytes()).hexdigest(),
    )


def test_input_gradient_is_the_pinned_one():
    """A mismatch here means numpy's RNG stream moved, not the kernels."""
    assert hashlib.sha256(_gradient().tobytes()).hexdigest() == INPUT_SHA256


@pytest.mark.parametrize("name", sorted(CODECS))
def test_wire_message_and_decode_bytes_are_unchanged(name):
    wire, message, decoded = _digests(name)
    want_wire, want_message, want_decoded = GOLDEN[name]
    assert wire == want_wire, "packet payloads / seq / priority / wire_size changed"
    assert message == want_message, "depacketize output changed"
    assert decoded == want_decoded, "decoded float64 bytes changed"


def test_multilevel_wire_remnant_and_decode_bytes_are_unchanged():
    wire, remnants, decoded = _multilevel_digests()
    want_wire, want_remnants, want_decoded = MULTILEVEL_GOLDEN
    assert wire == want_wire, "packet payloads / seq / priority / wire_size changed"
    assert remnants == want_remnants, "cut remnants changed"
    assert decoded == want_decoded, "decoded float64 bytes changed"
