"""Live channel counters: surrender and drop events stream to the registry."""

import numpy as np
import pytest

from repro.collectives.channel import GradientChannel
from repro.core import codec_by_name
from repro.obs.metrics import get_registry
from repro.train import TrimChannel


@pytest.fixture(autouse=True)
def clean_registry():
    registry = get_registry()
    registry.reset()
    yield registry
    registry.reset()


class SurrenderingChannel(GradientChannel):
    def transfer(self, flat, *, epoch=0, message_id=0, worker=0):
        flat = np.asarray(flat, dtype=np.float64)
        self.count_surrender()
        return np.zeros_like(flat)


class TestLiveCounters:
    def test_surrender_streams_immediately(self, clean_registry):
        channel = SurrenderingChannel()
        channel.transfer(np.ones(10))
        channel.transfer(np.ones(10))
        metric = clean_registry.get("repro_channel_rounds_surrendered_total")
        assert metric is not None
        assert metric.value(channel="SurrenderingChannel") == 2.0
        assert channel.stats.rounds_surrendered == 2

    def test_trim_channel_drops_stream_to_registry(self, clean_registry):
        channel = TrimChannel(
            codec_by_name("rht", root_seed=1, row_size=1024),
            trim_rate=0.0,
            drop_rate=0.9,
            seed=3,
        )
        channel.transfer(np.random.default_rng(0).standard_normal(20_000))
        metric = clean_registry.get("repro_channel_packets_dropped_total")
        assert metric is not None
        assert metric.value(channel="TrimChannel") == float(
            channel.stats.packets_dropped
        )
        assert channel.stats.packets_dropped > 0

    def test_counters_survive_stats_reset(self, clean_registry):
        """reset_stats() zeroes the per-run stats object but the registry
        counter keeps its monotonic total."""
        channel = SurrenderingChannel()
        channel.transfer(np.ones(4))
        channel.reset_stats()
        channel.transfer(np.ones(4))
        metric = clean_registry.get("repro_channel_rounds_surrendered_total")
        assert metric.value(channel="SurrenderingChannel") == 2.0
        assert channel.stats.rounds_surrendered == 1
