"""Regression: surrendered rounds vs SGD momentum.

A ``NetworkChannel(degraded_step=True)`` surrender hands the trainer an
all-zero gradient.  Classical momentum then still moves the parameters
(``v <- mu*v; p <- p - lr*v``) — the optimizer keeps coasting on stale
velocity through an outage.  That behavior is pinned here so it does not
change silently.
"""

import numpy as np

from repro.collectives import AllReduceHook
from repro.collectives.channel import GradientChannel
from repro.core import RHTCodec
from repro.faults import FaultInjector, FaultSpec, Scenario
from repro.net import dumbbell
from repro.nn.data import make_dataset
from repro.nn.models import MLP
from repro.train import DDPTrainer, NetworkChannel, TrainConfig


class AlwaysSurrenderChannel(GradientChannel):
    """Minimal degraded-step channel: every round is a surrender."""

    def transfer(self, flat, *, epoch=0, message_id=0, worker=0):
        flat = np.asarray(flat, dtype=np.float64)
        self.stats.messages += 1
        self.count_surrender()
        return np.zeros_like(flat)


def corrupting_network_channel():
    """The real thing: a NetworkChannel whose wire corrupts every data
    packet, so the transport surrenders and degrades the step."""

    def factory():
        net = dumbbell(pairs=1)
        scenario = Scenario(
            name="wire-corruptor",
            description="every data packet corrupted",
            faults=(FaultSpec("corrupt", "s0->s1", rate=1.0),),
        )
        FaultInjector(net, scenario, root_seed=0).install()
        return net

    return NetworkChannel(
        factory,
        RHTCodec(root_seed=1, row_size=1024),
        src="tx0",
        dst="rx0",
        deadline_s=5.0,
        degraded_step=True,
        max_retries=4,
    )


def trainer(channel, seed=0):
    train_set, test_set = make_dataset(
        num_classes=3, train_per_class=4, test_per_class=2, image_size=6, seed=seed
    )
    return DDPTrainer(
        MLP(108, [4], 3, seed=seed + 3),
        train_set,
        test_set,
        world_size=2,
        hook=AllReduceHook(channel),
        config=TrainConfig(
            epochs=1,
            batch_size=3,
            lr=0.1,
            momentum=0.9,
            seed=seed,
        ),
        label="momentum-surrender",
    )


def prime_velocity(t, value=0.01):
    for v in t.optimizer._velocity:
        v[...] = value


class TestDefaultBehavior:
    def test_zero_gradient_still_decays_velocity_and_moves_params(self):
        t = trainer(AlwaysSurrenderChannel())
        prime_velocity(t)
        params_before = t.model.flat_parameters()
        t.train(max_rounds=1)
        # v <- mu*v + 0; p <- p - lr*v
        for v in t.optimizer._velocity:
            assert np.allclose(v, 0.009)
        expected = params_before - 0.1 * 0.009
        assert np.allclose(t.model.flat_parameters(), expected)


class TestThroughRealNetworkChannel:
    def test_default_behavior(self):
        t = trainer(corrupting_network_channel())
        prime_velocity(t)
        params_before = t.model.flat_parameters()
        t.train(max_rounds=1)
        assert t.hook.stats.rounds_surrendered == t.world_size
        assert np.allclose(t.model.flat_parameters(), params_before - 0.1 * 0.009)
        assert all(np.allclose(v, 0.009) for v in t.optimizer._velocity)
