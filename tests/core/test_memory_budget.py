"""What one gradient round trip allocates, and what stays allocated after it.

``tracemalloc`` sees numpy's buffers (numpy registers them), so the peak
of one ``encode -> packetize -> depacketize -> decode`` round trip and the
memory still held after a dozen of them can be budgeted in units of the
input (8 bytes a coordinate).  Two things these budgets pin:

* the codecs work in place where they own the array (PR 20), so a round
  trip's high-water mark is a stated multiple of its input;
* shared randomness does not pile up: nothing gradient-sized outlives its
  round trip (the dither cache PR 20 removed pinned the last eight
  streams), and the sign cache holds at most ``SIGN_CACHE_BOUND`` diagonals;
* the two streaming kernels work a cache-sized piece at a time (PR 24):
  ``packetize`` packs straight into its message buffer, ``depacketize``
  unpacks a row group of packets at a time, and ``fwht_inplace`` owns two
  tiles however large its input is;
* every codec's ``encode`` and ``decode`` take a row group of at most
  ``_TILE`` coordinates through their whole chain at a time
  (``core.codec.RowGroups``): beside its planes or its output a codec holds
  a few groups of temporaries, not a message of them.
"""

import gc
import tracemalloc

import numpy as np
import pytest

import repro.transforms.rotation as rotation
from repro.core import codec_by_name, depacketize, packetize
from repro.transforms.hadamard import _TILE, fwht_inplace

COORDS = 2**18
INPUT_BYTES = 8 * COORDS
#: Peak traced memory of one half-trimmed round trip, in inputs: measured
#: 2.65 / 2.65 / 2.78 / 2.90 / 2.90 / 3.03 (sign / sq / sd / rht / eden /
#: multilevel) when the codecs went a row group at a time, plus 15 %.
#: Whole-message codec passes measured 4.40 / 4.40 / 4.40 / 4.53 / 7.78 /
#: 14.03, PR 19 5.27 / 5.77 / 6.77 / 6.55 for the first four.
PEAK_BUDGET = {
    "sign": 3.05, "sq": 3.05, "sd": 3.2, "rht": 3.35, "eden": 3.35, "multilevel": 3.5,
}
ROTATING = ("rht", "eden", "multilevel")
#: Diagonals the sign cache may hold (``rotation._cached_signs``).
SIGN_CACHE_BOUND = 8

GRADIENT = np.random.default_rng(20).standard_normal(COORDS)


def make_codec(name: str):
    return codec_by_name(name, root_seed=3, **({"row_size": 2**15} if name in ROTATING else {}))


def round_trip(codec, message_id: int, gradient: np.ndarray = GRADIENT) -> np.ndarray:
    encoded = codec.encode(gradient, epoch=1, message_id=message_id)
    packets = packetize(encoded, "tx", "rx", flow_id=1)
    del encoded
    # Every other data packet trimmed: both selects of the decode tail run.
    received = [p.trim() if i % 2 else p for i, p in enumerate(packets)]
    received[0] = packets[0]
    del packets
    message = depacketize(received)
    del received
    return codec.decode(message.to_encoded(), trimmed=message.trimmed, missing=message.missing)


@pytest.fixture
def traced():
    rotation._cached_signs.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        yield
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name", list(PEAK_BUDGET))
def test_round_trip_peak_is_within_budget(name, traced):
    codec = make_codec(name)
    round_trip(codec, message_id=1)  # imports, lazy tables, the first cache entries
    gc.collect()
    before, _ = tracemalloc.get_traced_memory()
    tracemalloc.reset_peak()
    decoded = round_trip(codec, message_id=2)
    _, peak = tracemalloc.get_traced_memory()
    assert decoded.shape == (COORDS,)
    inputs = (peak - before) / INPUT_BYTES
    print(f"{name}: round-trip peak {inputs:.2f} inputs ({(peak - before) / 2**20:.1f} MB)")
    assert inputs < PEAK_BUDGET[name], f"{name} round trip peaked at {inputs:.2f} inputs"


def test_what_stays_allocated_after_twelve_round_trips(traced):
    codec = make_codec("sd")
    gc.collect()
    before, _ = tracemalloc.get_traced_memory()
    for message_id in range(1, 13):
        round_trip(codec, message_id)
    gc.collect()
    after, _ = tracemalloc.get_traced_memory()
    held = (after - before) / INPUT_BYTES
    print(f"sd: {held:.2f} inputs still held after 12 round trips")
    assert held < 1.5  # PR 19: eight dither streams, 8.0


def test_sign_cache_holds_no_more_than_its_bound():
    rotation._cached_signs.cache_clear()
    codec = codec_by_name("rht", root_seed=3, row_size=64)
    for message_id in range(1, 13):  # twelve seeds go by
        round_trip(codec, message_id, GRADIENT[:4096])
    info = rotation._cached_signs.cache_info()
    assert info.maxsize == SIGN_CACHE_BOUND
    assert info.currsize == SIGN_CACHE_BOUND
    assert (info.hits, info.misses) == (12, 12)  # each decode found its encode's diagonal


MB = 2**20


@pytest.fixture(scope="module")
def million_coordinate_message():
    """A 2^20-coordinate (1, 31) message: 2,947 data packets, 4.09 MB of payload."""
    gradient = np.random.default_rng(21).standard_normal(2**20)
    return codec_by_name("sign", root_seed=3).encode(gradient, epoch=1, message_id=1)


def traced_peak(call):
    """``(result, bytes held by the result, peak bytes above the start)`` of ``call()``."""
    gc.collect()
    before, _ = tracemalloc.get_traced_memory()
    tracemalloc.reset_peak()
    result = call()
    held, peak = tracemalloc.get_traced_memory()
    return result, held - before, peak - before


def test_packetize_packs_into_its_own_buffer(million_coordinate_message, traced):
    """What ``packetize`` returns — the payload buffer plus 1.8 MB of packet
    objects — is also its high-water mark: the planes are packed a row
    group at a time straight into the buffer's rows.  Measured: peak 5.92 MB
    for 5.91 MB returned (4.09 MB of it payload); the parent peaked at
    17.15 MB, its whole-plane ``words`` / ``scratch`` / ``wire`` temporaries,
    the packed plane and its ``tobytes()`` copy all alive at once."""
    packetize(million_coordinate_message, "tx", "rx", flow_id=1)  # lazy imports and tables
    packets, held, peak = traced_peak(
        lambda: packetize(million_coordinate_message, "tx", "rx", flow_id=1)
    )
    payload = sum(len(p.payload) for p in packets[1:])
    print(f"packetize: payload {payload / MB:.2f} MB, returned {held / MB:.2f}, peak {peak / MB:.2f}")
    assert 4 * MB < payload <= held
    assert peak < held + 1 * MB


def test_depacketize_unpacks_a_row_group_at_a_time(million_coordinate_message, traced):
    """The four output planes (4 + 4 + 1 + 1 MB) plus, at any moment, one
    row group's temporaries and the per-packet views.  Measured: peak
    12.35 MB for 10.0 MB of planes; the parent peaked at 29.43 MB — the
    joined bytes, the ``octets`` and ``words`` copies and the unpacked
    matrix of a whole plane on top."""
    packets = packetize(million_coordinate_message, "tx", "rx", flow_id=1)
    depacketize(packets)
    message, held, peak = traced_peak(lambda: depacketize(packets))
    planes = sum(a.nbytes for a in (message.heads, message.tails, message.trimmed, message.missing))
    print(f"depacketize: planes {planes / MB:.2f} MB, returned {held / MB:.2f}, peak {peak / MB:.2f}")
    assert planes == 10 * MB
    assert peak < planes + 3 * MB


@pytest.mark.parametrize("rows", [1, 32, 96])
def test_fwht_owns_two_tiles_however_many_rows(rows, traced):
    """Ping and pong, 2 x 256 kB for float64 (measured 514 kB with the view
    objects).  The parent's half-tile scratch (323 kB) met this bound too;
    what it did not meet is the wide-row case below."""
    x = np.random.default_rng(22).standard_normal((rows, _TILE))
    fwht_inplace(x[:1].copy())
    _, _, peak = traced_peak(lambda: fwht_inplace(x))
    print(f"fwht_inplace({rows} x 2^15): peak {peak / 1024:.0f} kB")
    assert peak <= 2 * _TILE * x.itemsize + 4096


@pytest.mark.parametrize("rows", [1, 8])
def test_fwht_of_rows_longer_than_a_tile_owns_half_a_row_more(rows, traced):
    """The stages across a whole row keep half of *one row*, not half of
    the matrix: 1.0 MB for 2^17-coordinate rows however many there are
    (the parent: 0.6 MB for one row, 4.1 MB for eight)."""
    x = np.random.default_rng(23).standard_normal((rows, 4 * _TILE))
    fwht_inplace(x[:1].copy())
    _, _, peak = traced_peak(lambda: fwht_inplace(x))
    print(f"fwht_inplace({rows} x 2^17): peak {peak / MB:.2f} MB")
    assert peak <= (2 * _TILE + x.shape[1] // 2) * x.itemsize + 4096


#: One row group of float64 coordinates: 2^15 x 8 bytes = 256 kB.
GROUP = _TILE * 8
#: Groups of temporaries an encode / a decode of 2^20 coordinates may hold
#: beyond its planes / its output: two.  A rotating code's encode holds one
#: group of rows beside ``fwht_inplace``'s two tiles (pinned above): three.
#: Measured when the codecs went a row group at a time: encode 0.51 / 2.07 /
#: 2.03 / 3.02 / 3.05 / 3.04, decode 1.51 / 1.01 / 2.02 / 2.02 / 2.01 / 2.02
#: (sign / sq / sd / rht / eden / multilevel); a decode writes each group
#: straight into its output.  A whole-message temporary beside the planes
#: or the output is four groups even as a byte mask, so any of them fails.
TWO_GROUPS = 2 * GROUP
ENCODE_HELD = {name: TWO_GROUPS + (GROUP if name in ROTATING else 0) for name in PEAK_BUDGET}
#: numpy's casting buffers and the views' headers.
SLACK = 64 * 1024


@pytest.fixture(scope="module")
def million_coordinates():
    return np.random.default_rng(24).standard_normal(2**20)


@pytest.mark.parametrize("name", list(PEAK_BUDGET))
def test_encode_holds_its_planes_and_two_groups(name, million_coordinates, traced):
    """σ is reduced before the planes exist, so its scratch (one input) and
    the planes are never alive together: the high-water mark is the larger
    of the two plus the groups.  The message is encoded once before it is
    measured, so the rotation's cached diagonal is not counted."""
    codec = make_codec(name)
    codec.encode(million_coordinates, epoch=1, message_id=1)
    encoded, _, peak = traced_peak(
        lambda: codec.encode(million_coordinates, epoch=1, message_id=1)
    )
    planes = encoded.heads.nbytes + encoded.tails.nbytes
    groups = (peak - max(planes, million_coordinates.nbytes)) / GROUP
    print(f"{name}: encode peak {peak / MB:.2f} MB, planes {planes / MB:.2f} MB, "
          f"held {groups:.2f} groups beyond")
    assert peak <= max(planes, million_coordinates.nbytes) + ENCODE_HELD[name] + SLACK


@pytest.mark.parametrize("name", list(PEAK_BUDGET))
def test_decode_holds_its_output_and_two_groups(name, million_coordinates, traced):
    """Every other coordinate trimmed and one in 97 lost: all of the
    decode's selects run in every group.  (A rotated message's output is a
    view that cuts the last row's padding; at 2^20 there is none.)"""
    codec = make_codec(name)
    encoded = codec.encode(million_coordinates, epoch=1, message_id=1)
    trimmed = np.zeros(encoded.length, dtype=bool)
    trimmed[::2] = True
    missing = np.zeros(encoded.length, dtype=bool)
    missing[::97] = True
    codec.decode(encoded, trimmed=trimmed, missing=missing)
    decoded, _, peak = traced_peak(
        lambda: codec.decode(encoded, trimmed=trimmed, missing=missing)
    )
    groups = (peak - decoded.nbytes) / GROUP
    print(f"{name}: decode peak {peak / MB:.2f} MB, output {decoded.nbytes / MB:.2f} MB, "
          f"held {groups:.2f} groups beyond")
    assert decoded.shape == million_coordinates.shape
    assert peak <= decoded.nbytes + TWO_GROUPS + SLACK
