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

A second set pins a cluster job's message (3,224 coordinates; an RHT code
pads it to 4,096, 12 data packets whose last carries 180), where a
message's fixed cost rather than its coordinates dominates: every
registered codec, clean and congested.
"""

import hashlib

import numpy as np
import pytest

from repro.core import (
    available_codecs,
    codec_by_name,
    decode_packets,
    depacketize,
    packetize,
)

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


SMALL_LENGTH = 3_224
SMALL_INPUT_SHA256 = "1792601ace222354d8ad734057b5acbb6e7342ceaab8743cd82869abffe77d25"

#: codec -> sha256 of (wire packets, clean message, clean decode, congested
#: message, congested decode) for the 3,224-coordinate message.
SMALL_GOLDEN = {
    "eden": (
        "6817b2973e14590df4901556ed144881f64b4f56b99621ab1f5e335a3f266d78",
        "6dd76bb4641f81778fc92f974ba688ed89b7eca81f305abf67d42a657652d3ad",
        "7d6d11f6315d5ac4ddeb9eb8a72c5bd93b65b99b6c3afd9e2c8fc03f77f3af14",
        "5c3b8138f136f13b8e68b68939760c94e735331dfb4e7d75da0072e0b8f700f8",
        "e52f09e411e97e476a226a3fb26e3c29a6cf93ec5cbc28bfb8e1e5d4bb650779",
    ),
    "multilevel": (
        "7a7f081e6bdce37d138df20ec8d45f73da251d720c0f001385ecaa768dbdb303",
        "56ae6444ce2942cd796ff414de98c9aa0eed8b3bb827109b952f900faba26fa3",
        "8d9960dec59222637e56df6a1281c48b9ecc07ef00720ead10a28f9ae8f70ec5",
        "eb72a827fa7216c0fec41d96d0d8203d05f101d670bbf51d941ff77fd83ab7b0",
        "1bbccf5d1f0394a4c281cf7bd21db078aa886e78bc4bba25cb47e6d51c4b2832",
    ),
    "rht": (
        "5cd5ab96a2425209c9ac9049a29b94d7bb707b72c461ee4b87c9360fe6fa51da",
        "1c79f9818f6bd27f32c3861439343ea4f962fddfddfc61cb95b2fedc26748043",
        "cf4b6338f268efa4bf5d70bdb9853dae3f5d7f0a4aae30d5c0affd278edbcfdf",
        "c8dc8be97669c040c5c99a27501627fef6bd49415f1e828b0bbb63666036205e",
        "94f97b1100856320c2a7a101a1c4d49059faca59e64a6fb849c904df72fc7725",
    ),
    "sd": (
        "d2201c9a9878e78a386214bc533d8f24e7671a9a571d96887d55e0dd05049549",
        "e3dcb62744c2ba5c0a7f8ea94da7d835f9abcdc81c48a505a78932157dfecbaf",
        "e563466bc48e7ddf3ffe160da97c308e7c9b2aab7c3b995077bb62b3a6a35d42",
        "36208d082cf3a1da66d09f3bc147bbfcdc5a34b066cb5d456ab4ce4cfda5ed51",
        "5ea7cb91af28188ea8570c9aa3053c29b7b12ce566360dc91262661daadf5169",
    ),
    "sign": (
        "4973205ef17a6caeb505cdf9cdb260d319137cbccc5eee7b556f0a7f215d4512",
        "1df17d746f7704a3d3ca6601493c6d9998b1a8f2d8ccb2fd4f73dc29ae5c278d",
        "14c5a60e2d88466af9704467f7fadab97a29b92462ce6f2e2a1af984c8921b70",
        "6655cafcde936e20ee89cf3c8b9fd0387f9a81b426ef59c0a0de1b413bed7a6d",
        "a65d12a531d6bc8c216f9fed81937e8ade8f6a21117fb19ac69667254540f95a",
    ),
    "sq": (
        "7a5f09203cac1c222b211ac0a1d0683ec5d0ebeae2f4a86d63d3672afdce7edf",
        "db54ab540e53355d681d1a947ccd25c184652401aaf6363c5f5567696f1fd041",
        "e563466bc48e7ddf3ffe160da97c308e7c9b2aab7c3b995077bb62b3a6a35d42",
        "6a9f2eb7ce8fbb3f133682edb30474f2a39fb35d1d91ce85e0baf1ef22b38a09",
        "bc19b54ac514543a77c4cf2c8f0d8814ede2dc26c4652b5c13e122bc118fc6f0",
    ),
}


def _small_gradient() -> np.ndarray:
    return np.random.default_rng(20241119).standard_t(df=3, size=SMALL_LENGTH)


def _message_digest(msg) -> str:
    digest = hashlib.sha256()
    for plane in (msg.heads, msg.tails, msg.trimmed, msg.missing, msg.depth):
        if plane is not None:
            digest.update(plane.dtype.str.encode())
            digest.update(plane.tobytes())
    return digest.hexdigest()


def _small_digests(name: str) -> tuple[str, str, str, str, str]:
    codec = codec_by_name(name, root_seed=5)
    enc = codec.encode(_small_gradient(), epoch=2, message_id=9)
    packets = packetize(enc, "w0", "ps", flow_id=3)
    meta, data = packets[0], packets[1:]
    digests = [_packets_digest(packets)]
    # Congested: the third data packet is dropped, the fifth cut to 8 bits
    # (a two-plane code keeps its heads) and the short final one trimmed.
    congested = [meta, *data[:2], *data[3:4], data[4].trim(8), *data[5:-1], data[-1].trim()]
    for received in (packets, congested):
        msg = depacketize(received)
        assert msg.missing.any() == msg.trimmed.any() == (received is congested)
        decoded = codec.decode(msg.to_encoded(), trimmed=msg.trimmed, missing=msg.missing)
        assert decoded.dtype == np.float64 and decoded.shape == (SMALL_LENGTH,)
        digests += [_message_digest(msg), hashlib.sha256(decoded.tobytes()).hexdigest()]
    return tuple(digests)


def test_small_input_gradient_is_the_pinned_one():
    assert hashlib.sha256(_small_gradient().tobytes()).hexdigest() == SMALL_INPUT_SHA256


def test_small_golden_covers_every_registered_codec():
    assert sorted(SMALL_GOLDEN) == available_codecs()


@pytest.mark.parametrize("name", sorted(SMALL_GOLDEN))
def test_small_message_bytes_are_unchanged(name):
    got = _small_digests(name)
    labels = ("wire", "clean message", "clean decode", "congested message", "congested decode")
    for label, have, want in zip(labels, got, SMALL_GOLDEN[name]):
        assert have == want, f"{label} changed"
