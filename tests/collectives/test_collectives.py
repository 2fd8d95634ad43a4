"""Tests for channels, collectives, and comm hooks."""

import numpy as np
import pytest

from repro.collectives import AllReduceHook, PerfectChannel, allreduce_mean, broadcast
from repro.core import RHTCodec, codec_by_name
from repro.train import TrimChannel


def worker_grads(world=4, n=1000, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(n) for _ in range(world)]


class TestPerfectChannel:
    def test_identity(self):
        channel = PerfectChannel()
        x = np.arange(5.0)
        assert np.array_equal(channel.transfer(x), x)

    def test_returns_copy(self):
        channel = PerfectChannel()
        x = np.arange(5.0)
        out = channel.transfer(x)
        out[0] = 99
        assert x[0] == 0

    def test_stats_accounting(self):
        channel = PerfectChannel()
        channel.transfer(np.zeros(100))
        channel.transfer(np.zeros(50))
        assert channel.stats.messages == 2
        assert channel.stats.coordinates == 150
        assert channel.stats.bytes_sent == 600

    def test_reset_stats(self):
        channel = PerfectChannel()
        channel.transfer(np.zeros(10))
        channel.reset_stats()
        assert channel.stats.messages == 0


class TestAllReduceMean:
    def test_exact_mean_with_perfect_channel(self):
        grads = worker_grads()
        result = allreduce_mean(grads)
        assert np.allclose(result, np.mean(grads, axis=0))

    def test_trim_channel_approximates_mean(self):
        grads = worker_grads(world=4, n=20_000)
        channel = TrimChannel(RHTCodec(root_seed=1, row_size=2048), trim_rate=0.3, seed=2)
        result = allreduce_mean(grads, channel, epoch=1, message_id=1)
        true = np.mean(grads, axis=0)
        err = np.linalg.norm(result - true) / np.linalg.norm(true)
        assert 0 < err < 0.5

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="length"):
            allreduce_mean([np.zeros(3), np.zeros(4)])
        with pytest.raises(ValueError, match="flat"):
            allreduce_mean([np.zeros((2, 2))])
        with pytest.raises(ValueError, match="at least one"):
            allreduce_mean([])


class TestBroadcast:
    def test_broadcast(self):
        x = np.arange(10.0)
        copies = broadcast(x, world=3)
        assert len(copies) == 3
        for copy in copies:
            assert np.allclose(copy, x)


class TestHooks:
    def test_allreduce_hook_matches_function(self):
        grads = worker_grads(world=3)
        hook = AllReduceHook()
        assert np.allclose(hook.aggregate(grads, epoch=0), np.mean(grads, axis=0))

    def test_message_ids_advance(self):
        hook = AllReduceHook()
        a, b = hook.next_message_id(), hook.next_message_id()
        assert b == a + 1

    def test_hook_stats_proxy_channel(self):
        channel = TrimChannel(codec_by_name("sign"), trim_rate=0.5, seed=0)
        hook = AllReduceHook(channel)
        hook.aggregate(worker_grads(world=2, n=20_000), epoch=1)
        assert hook.stats.packets_total > 0
        assert 0.2 < hook.stats.trim_fraction < 0.8

