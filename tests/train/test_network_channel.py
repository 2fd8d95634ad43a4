"""End-to-end: DDP training whose gradients cross the packet simulator."""

import gc

import numpy as np
import pytest

from repro.collectives import AllReduceHook
from repro.core import RHTCodec, nmse
from repro.net import IncastBurst, dumbbell
from repro.nn import make_dataset
from repro.packet import Packet, SingleLevelTrim
from repro.train import DDPTrainer, NetworkChannel, TrainConfig


def clean_network():
    return dumbbell(pairs=1)


def dead_network():
    net = dumbbell(pairs=1)
    net.set_impairment("s0", "s1", drop_prob=1.0)  # nothing arrives
    return net


def congested_network():
    """Shallow trimming switches + an incast colliding with the gradient."""
    net = dumbbell(
        pairs=3,
        edge_rate_bps=10e9,
        bottleneck_rate_bps=10e9,
        trim_policy=SingleLevelTrim(),
        buffer_bytes=25_000,
    )
    burst = IncastBurst(
        net.sim,
        senders=[net.hosts["tx1"], net.hosts["tx2"]],
        dst="rx1",
        burst_bytes=150_000,
        seed=2,
    )
    burst.fire(at=0.0)
    return net


class TestNetworkChannelTransfer:
    def test_clean_network_lossless(self):
        codec = RHTCodec(root_seed=1, row_size=4096)
        channel = NetworkChannel(clean_network, codec, "tx0", "rx0")
        x = np.random.default_rng(0).standard_normal(30_000)
        out = channel.transfer(x, epoch=1, message_id=1)
        assert nmse(x, out) < 1e-12
        assert channel.last_trim_fraction == 0.0
        assert len(channel.fcts) == 1

    def test_congested_network_trims_but_delivers(self):
        codec = RHTCodec(root_seed=1, row_size=4096)
        channel = NetworkChannel(congested_network, codec, "tx0", "rx0")
        x = np.random.default_rng(1).standard_normal(60_000)
        out = channel.transfer(x, epoch=1, message_id=1)
        assert channel.last_trim_fraction > 0.0
        assert channel.stats.packets_trimmed > 0
        assert nmse(x, out) < 0.6  # trimmed coords decoded, not lost

    def test_deadline_enforced(self):
        codec = RHTCodec(root_seed=1, row_size=1024)
        channel = NetworkChannel(dead_network, codec, "tx0", "rx0", deadline_s=0.01)
        with pytest.raises(RuntimeError, match="deadline"):
            channel.transfer(np.ones(5000))

    def test_fct_accounting(self):
        codec = RHTCodec(root_seed=1, row_size=1024)
        channel = NetworkChannel(clean_network, codec, "tx0", "rx0")
        for m in range(3):
            channel.transfer(np.random.default_rng(m).standard_normal(5000),
                             message_id=m)
        assert len(channel.fcts) == 3
        # 100 Gb/s, three 1 us hops: ~25 packets land in microseconds,
        # nowhere near the 30 s deadline the clock is advanced to.
        assert all(0 < fct < 1e-3 for fct in channel.fcts)
        assert channel.mean_fct < channel.deadline_s
        channel.transfer(np.random.default_rng(9).standard_normal(50_000))
        assert channel.fcts[-1] > 2 * max(channel.fcts[:3])

    def test_finished_transfer_retains_nothing(self):
        """A caller that keeps every built network (to read its counters)
        must not thereby keep any transfer's packets: handlers are
        unregistered on every exit and the packets die by refcount."""
        kept = []

        def recording(build):
            def factory():
                kept.append(build())
                return kept[-1]
            return factory

        def live_packets():
            return sum(1 for obj in gc.get_objects() if type(obj) is Packet)

        codec = RHTCodec(root_seed=1, row_size=1024)
        channel = NetworkChannel(recording(clean_network), codec, "tx0", "rx0")
        lossy = NetworkChannel(
            recording(dead_network), codec, "tx0", "rx0",
            degraded_step=True, max_retries=2,
        )
        x = np.random.default_rng(0).standard_normal(5000)
        gc.collect()
        before = live_packets()
        for m in range(4):
            out = channel.transfer(x, message_id=m)
        out = lossy.transfer(x, message_id=4)
        assert lossy.stats.rounds_surrendered == 1
        del out
        assert live_packets() <= before  # no gc.collect(): refcount only
        assert len(kept) == 5
        for net in kept:
            for host in net.hosts.values():
                assert 77_000 not in host._handlers


class TestTrainingOverSimulatedNetwork:
    def test_ddp_trains_through_the_packet_simulator(self):
        """The capstone integration: a full DDP run whose every gradient
        message is packetized, switched, trimmed, and decoded."""
        from repro.nn import MLP

        train, test = make_dataset(
            num_classes=6, train_per_class=10, test_per_class=6,
            image_size=8, noise=1.0, seed=0,
        )
        codec = RHTCodec(root_seed=3, row_size=1024)
        channel = NetworkChannel(congested_network, codec, "tx0", "rx0")
        # Big enough that one gradient message (~50 kB) itself overflows
        # the 25 kB switch buffer on top of the incast.
        model = MLP(192, [64], 6, seed=0)
        cfg = TrainConfig(epochs=2, batch_size=10, lr=0.1, seed=0, augment=False)
        trainer = DDPTrainer(
            model, train, test, world_size=2,
            hook=AllReduceHook(channel), config=cfg,
        )
        history = trainer.train()
        assert history.records[-1].train_loss < history.records[0].train_loss + 0.5
        assert channel.stats.messages == 2 * 2 * len(trainer.loaders[0])
        assert channel.stats.packets_trimmed > 0  # congestion really hit
