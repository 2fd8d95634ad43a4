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
  tiles however large its input is.
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
#: 4.27 / 4.27 / 4.27 / 4.40 (sign / sq / sd / rht) when this was written,
#: plus 15 %.  PR 19 measured 5.27 / 5.77 / 6.77 / 6.55.
PEAK_BUDGET = {"sign": 4.9, "sq": 4.9, "sd": 4.9, "rht": 5.05}
#: Diagonals the sign cache may hold (``rotation._cached_signs``).
SIGN_CACHE_BOUND = 8

GRADIENT = np.random.default_rng(20).standard_normal(COORDS)


def make_codec(name: str):
    return codec_by_name(name, root_seed=3, **({"row_size": 2**15} if name == "rht" else {}))


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
