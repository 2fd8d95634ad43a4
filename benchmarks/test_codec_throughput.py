"""Codec encode+decode microbenchmarks (feeds the Figure 5 cost model).

These use the real pytest-benchmark loop (not pedantic) — they are the
measured per-coordinate throughput numbers that the round-time model
scales into the Figure 5 breakdown.

The ``test_pipeline_stage_throughput`` benchmark additionally times each
stage of the gradient hot path (encode → packetize → depacketize →
decode) with a plain ``perf_counter`` loop and prints the
coordinates-per-second numbers.  They are for reading, not gating: on a
shared box they move 1.2-1.9x run to run (docs/performance.md, "Trial
record: the ``_per_s`` gate"); the ledger's ``wire-1m`` ``core.*_s`` rows
are the gated form of the same stages.

Beside the 2^16-coordinate rows it prints µs per message per stage for a
cluster job's 3,224-coordinate RHT message, whose cost is mostly fixed
per message rather than per coordinate (docs/performance.md, "Ledger
record: small messages").

``test_wave_pass_cost`` prints µs per cluster wave of 8 such messages
(four 2-worker jobs): ``packetize_many`` / ``depacketize_many`` over the
whole wave beside 8 single ``packetize`` / ``depacketize`` calls
(docs/performance.md, "Ledger record: one wire pass per wave").

``test_streaming_kernel_cost`` prints the two numpy kernels under those
stages on their own, in ns per coordinate: the FWHT at the three shapes
the ledger's workloads transform, the 31-bit plane packed / unpacked
for a 12-, 315- and 2,947-packet message, and the 4- and 7-bit planes
unpacked 11 and 128 packets a call (docs/performance.md, "FWHT",
"Whole-message bit packing" and "Ledger record: small messages").
"""

import time

import numpy as np
import pytest

from repro.bench import emit, format_table
from repro.core import (
    MultiLevelCodec,
    codec_by_name,
    depacketize,
    depacketize_many,
    packetize,
    packetize_many,
)
from repro.core.layout import coords_per_packet
from repro.packet import pack_segments, unpack_batch
from repro.packet.bitpack import ROW_GROUP
from repro.transforms import fwht_inplace

NUM_COORDS = 2**16


@pytest.fixture(scope="module", autouse=True)
def steady_allocator():
    """Time every stage with glibc's malloc in one regime.

    glibc lifts its mmap threshold to the size of the largest mmapped
    block freed so far and keeps twice that much free heap untrimmed, so
    whether the codecs' 256-512 kB temporaries are recycled or mapped and
    page-faulted afresh on every call (3x on ``decode`` alone) depends on
    what ran *earlier* in the process.  Until PR 17 it was depacketize's
    2 MB bit-slot matrix that happened to lift it for the stages timed
    after it.  Freeing one 16 MB block up front puts every stage, on any
    commit, in the recycled regime -- what the perf ledger's
    ``FIXED_ENV`` does with ``MALLOC_*`` variables.
    """
    block = np.empty(16 << 20, dtype=np.uint8)
    del block


@pytest.fixture(scope="module")
def gradient():
    return np.random.default_rng(0).standard_normal(NUM_COORDS)


def _best_seconds(fn, repeats=5, number=3):
    """Best-of-``repeats`` mean seconds per call over ``number`` calls."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(number):
            fn()
        best = min(best, (time.perf_counter() - start) / number)
    return best


def _emit_coords_per_s(title, stages):
    """Print one coords/s row per ``(stage, seconds per call)`` pair."""
    rows = [[stage, f"{NUM_COORDS / seconds:,.0f}"] for stage, seconds in stages]
    emit(
        "\n"
        + format_table(
            ["stage", "coords/s"], rows, title=f"[{title}, {NUM_COORDS} coords]"
        )
    )


def test_pipeline_stage_throughput(gradient):
    """Per-stage hot-path throughput for the paper's P=1/Q=31 layout."""
    codec = codec_by_name("sign", root_seed=1)
    enc = codec.encode(gradient, epoch=0, message_id=1)
    packets = packetize(enc, "a", "b")
    # Stress depacketize the way congestion does: every third data packet
    # trimmed, every seventh dropped, and the rest arriving reversed.
    received = []
    for i, pkt in enumerate(packets):
        if i and i % 7 == 0:
            continue
        received.append(pkt.trim() if i and i % 3 == 0 else pkt)
    received = received[::-1]

    encode_s = _best_seconds(lambda: codec.encode(gradient, epoch=0, message_id=1))
    packetize_s = _best_seconds(lambda: packetize(enc, "a", "b"))
    both_s = _best_seconds(
        lambda: packetize(codec.encode(gradient, epoch=0, message_id=1), "a", "b")
    )
    depacketize_s = _best_seconds(lambda: depacketize(packets))
    depacketize_congested_s = _best_seconds(lambda: depacketize(received))
    message = depacketize(packets)
    decode_s = _best_seconds(
        lambda: codec.decode(message.to_encoded(), trimmed=message.trimmed)
    )

    stages = [
        ("encode", encode_s),
        ("packetize", packetize_s),
        ("encode+packetize", both_s),
        ("depacketize", depacketize_s),
        ("depacketize (congested)", depacketize_congested_s),
        ("decode", decode_s),
    ]
    _emit_coords_per_s("perf codec pipeline (P=1/Q=31, sign)", stages)
    assert depacketize(packets).length == NUM_COORDS
    _emit_small_message_stages()


#: A cluster job's gradient (``MLP(192, [16], 8)``): RHT pads it to 4,096
#: coordinates, 12 data packets, the last carrying 180.
SMALL_COORDS = 3224


def _emit_small_message_stages():
    """µs per message of each stage for a cluster job's message, where a
    message's fixed cost (numpy calls, headers, packets) outweighs its
    coordinates.  Every worker after the first finds the message's seed
    already derived, as here."""
    codec = codec_by_name("rht", root_seed=1)
    flat = np.random.default_rng(0).standard_normal(SMALL_COORDS)
    enc = codec.encode(flat, epoch=0, message_id=1)
    packets = packetize(enc, "a", "b")
    message = depacketize(packets)
    stages = {
        "encode": lambda: codec.encode(flat, epoch=0, message_id=1),
        "packetize": lambda: packetize(enc, "a", "b"),
        "depacketize": lambda: depacketize(packets),
        "decode": lambda: codec.decode(message.to_encoded(), trimmed=message.trimmed),
    }
    rows = [
        [stage, f"{_best_seconds(fn, repeats=7, number=50) * 1e6:,.1f}"]
        for stage, fn in stages.items()
    ]
    emit(
        "\n"
        + format_table(
            ["stage", "us/message"],
            rows,
            title=f"[perf codec pipeline (rht), {SMALL_COORDS} coords, {len(packets) - 1} packets]",
        )
    )


#: Messages in one ``incast-4job`` wave: four jobs of two workers.
WAVE_MESSAGES = 8


def test_wave_pass_cost():
    """µs per wave of ``WAVE_MESSAGES`` cluster messages: one pass over
    the wave against one call a message, each side of the wire."""
    codec = codec_by_name("rht", root_seed=1)
    grads = np.random.default_rng(0).standard_normal((WAVE_MESSAGES, SMALL_COORDS))
    outgoing = [
        (codec.encode(grad, epoch=0, message_id=worker), f"h{worker}", "agg", worker)
        for worker, grad in enumerate(grads)
    ]
    wires = packetize_many(outgoing)
    stages = {
        "packetize": (
            lambda: packetize_many(outgoing),
            lambda: [packetize(enc, src, dst, flow_id=flow) for enc, src, dst, flow in outgoing],
        ),
        "depacketize": (lambda: depacketize_many(wires), lambda: [depacketize(w) for w in wires]),
    }
    rows = []
    for stage, (wave, singles) in stages.items():
        wave_s = _best_seconds(wave, repeats=7, number=20)
        singles_s = _best_seconds(singles, repeats=7, number=20)
        rows.append([stage, f"{wave_s * 1e6:,.0f}", f"{singles_s * 1e6:,.0f}"])
    emit(
        "\n"
        + format_table(
            ["stage", "one pass (us/wave)", f"{WAVE_MESSAGES} calls (us/wave)"],
            rows,
            title=f"[perf wave pass (rht), {WAVE_MESSAGES} x {SMALL_COORDS} coords]",
        )
    )
    for message, wire in zip(depacketize_many(wires), wires):
        assert np.array_equal(message.heads, depacketize(wire).heads)


def test_streaming_kernel_cost():
    """ns per coordinate of the FWHT and of the bit-plane kernels, alone."""
    rng = np.random.default_rng(1)
    rows = []
    for shape in [(1, 4096), (28, 4096), (32, 2**15)]:
        x = rng.standard_normal(shape)
        seconds = _best_seconds(lambda: fwht_inplace(x), repeats=7)
        rows.append([f"fwht_inplace {shape}", f"{seconds * 1e9 / x.size:.2f}"])
    n = coords_per_packet(1500, 1, 31)
    for packets in (12, 315, 2947):
        tails = rng.integers(0, 2**31, size=packets * n - 100, dtype=np.uint64).astype(np.uint32)
        plane = pack_segments(tails, 31, n)
        chunks = [plane.segment(i) for i in range(plane.num_segments - 1)]

        def unpack():  # a row group a call, as depacketize hands them over
            for start in range(0, len(chunks), ROW_GROUP):
                unpack_batch(chunks[start : start + ROW_GROUP], n, 31)

        pack_s = _best_seconds(lambda: pack_segments(tails, 31, n), repeats=7)
        unpack_s = _best_seconds(unpack, repeats=7)
        rows.append([f"31-bit pack, {packets} packets", f"{pack_s * 1e9 / tails.size:.2f}"])
        rows.append([f"31-bit unpack, {packets} packets", f"{unpack_s * 1e9 / (len(chunks) * n):.2f}"])
        assert np.array_equal(unpack_batch(chunks, n, 31).reshape(-1), tails[: len(chunks) * n])
    # The narrow planes, whose eight lanes all end in one word: EDEN's
    # 4-bit heads and the multi-level code's 7-bit magnitudes, unpacked
    # 11 packets a call and a full row group a call.
    for bits in (4, 7):
        for packets in (11, ROW_GROUP):
            codes = rng.integers(0, 2**bits, size=packets * n, dtype=np.uint64).astype(np.uint32)
            plane = pack_segments(codes, bits, n)
            chunks = [plane.segment(i) for i in range(packets)]
            unpack_s = _best_seconds(lambda: unpack_batch(chunks, n, bits), repeats=7)
            ns = unpack_s * 1e9 / codes.size
            rows.append([f"{bits}-bit unpack, {packets} packets", f"{ns:.2f}"])
            assert np.array_equal(unpack_batch(chunks, n, bits).reshape(-1), codes)
    emit(
        "\n"
        + format_table(
            ["kernel", "ns/coord"], rows, title=f"[perf streaming kernels, numpy {np.__version__}]"
        )
    )


def test_rht_pipeline_throughput(gradient):
    """Encode+packetize throughput for the rotated (RHT) codec."""
    codec = codec_by_name("rht", root_seed=1, row_size=4096)

    def round_trip():
        return packetize(codec.encode(gradient, epoch=0, message_id=1), "a", "b")

    seconds = _best_seconds(round_trip)
    _emit_coords_per_s(
        "perf rht encode+packetize (row=4096)", [("encode+packetize", seconds)]
    )
    assert depacketize(round_trip()).length >= NUM_COORDS


@pytest.mark.parametrize("name", ["sign", "sq", "sd", "rht"])
def test_encode_decode_throughput(benchmark, gradient, name):
    kwargs = {"row_size": 4096} if name == "rht" else {}
    codec = codec_by_name(name, root_seed=1, **kwargs)

    def round_trip():
        enc = codec.encode(gradient, epoch=0, message_id=1)
        return codec.decode(enc)

    result = benchmark(round_trip)
    assert result.shape == (NUM_COORDS,)


def test_multilevel_throughput(benchmark, gradient):
    codec = MultiLevelCodec(root_seed=1, row_size=4096)

    def round_trip():
        enc = codec.encode(gradient)
        return codec.decode(enc)

    result = benchmark(round_trip)
    assert result.shape == (NUM_COORDS,)


def test_trim_operation_throughput(benchmark, gradient):
    """The switch-side cost: trimming a packet is just a byte slice."""
    from repro.core import SignMagnitudeCodec, packetize

    packets = packetize(SignMagnitudeCodec().encode(gradient), "a", "b")
    data = [p for p in packets[1:] if p.trimmable_bytes() is not None]

    def trim_all():
        return [p.trim() for p in data]

    trimmed = benchmark(trim_all)
    assert all(t.is_trimmed for t in trimmed)
