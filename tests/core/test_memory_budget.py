"""What one gradient round trip allocates, and what stays allocated after it.

``tracemalloc`` sees numpy's buffers (numpy registers them), so the peak
of one ``encode -> packetize -> depacketize -> decode`` round trip and the
memory still held after a dozen of them can be budgeted in units of the
input (8 bytes a coordinate).  Two things these budgets pin:

* the codecs work in place where they own the array (PR 20), so a round
  trip's high-water mark is a stated multiple of its input;
* shared randomness does not pile up: nothing gradient-sized outlives its
  round trip (the dither cache PR 20 removed pinned the last eight
  streams), and the sign cache holds at most ``SIGN_CACHE_BOUND`` diagonals.
"""

import gc
import tracemalloc

import numpy as np
import pytest

import repro.transforms.rotation as rotation
from repro.core import codec_by_name, depacketize, packetize

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
