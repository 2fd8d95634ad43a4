"""Integration tests for the DDP trainer."""

import numpy as np
import pytest

from repro.collectives import AllReduceHook
from repro.core import codec_by_name
from repro.nn import (
    SGD,
    LogisticRegression,
    MLP,
    Tensor,
    cross_entropy,
    make_dataset,
)
from repro.train import (
    DDPTrainer,
    RoundTimeModel,
    TrainConfig,
    TrimChannel,
    shard_dataset,
)


@pytest.fixture(scope="module")
def dataset():
    return make_dataset(
        num_classes=8, train_per_class=16, test_per_class=8, image_size=8, noise=1.0, seed=0
    )


class TestShardDataset:
    def test_shards_partition(self, dataset):
        train, _ = dataset
        shards = shard_dataset(train, 4)
        assert sum(len(s) for s in shards) == len(train)
        assert all(abs(len(s) - len(train) / 4) <= 1 for s in shards)

    def test_invalid_world(self, dataset):
        train, _ = dataset
        with pytest.raises(ValueError):
            shard_dataset(train, 0)


class TestDDPEquivalence:
    def test_ddp_step_equals_large_batch_step(self, dataset):
        """One DDP round over W workers == one step on the union batch."""
        train, test = dataset
        cfg = TrainConfig(epochs=1, batch_size=8, lr=0.1, seed=0, augment=False)

        ddp_model = MLP(192, [16], 8, seed=3)
        trainer = DDPTrainer(ddp_model, train, test, world_size=2, config=cfg)
        # An identically seeded trainer shows which batches round 1 draws.
        twin = DDPTrainer(MLP(192, [16], 8, seed=3), train, test, world_size=2, config=cfg)
        batches = [next(iter(loader)) for loader in twin.loaders]
        stepper = trainer.rounds()
        grads, epoch, _span = next(stepper)
        # The send applies round 1's step, then suspends inside round 2.
        stepper.send(trainer.hook.aggregate(grads, epoch=epoch))
        stepper.close()

        solo_model = MLP(192, [16], 8, seed=3)
        opt = SGD(solo_model.parameters(), lr=0.1, momentum=cfg.momentum)
        images = np.concatenate([b[0] for b in batches])
        labels = np.concatenate([b[1] for b in batches])
        solo_model.zero_grad()
        # Mean of per-worker mean losses == loss over the union batch
        # (equal shard sizes), so gradients match exactly.
        cross_entropy(solo_model(Tensor(images)), labels).backward()
        opt.step()

        assert np.allclose(
            ddp_model.flat_parameters(), solo_model.flat_parameters(), atol=1e-10
        )

    def test_training_reduces_loss(self, dataset):
        train, test = dataset
        model = LogisticRegression(192, 8, seed=0)
        cfg = TrainConfig(epochs=4, batch_size=8, lr=0.1, seed=0, augment=False)
        history = DDPTrainer(model, train, test, world_size=2, config=cfg).train()
        assert history.records[-1].train_loss < history.records[0].train_loss
        assert history.final_top1 > 1.0 / 8

    def test_trimmed_training_still_learns(self, dataset):
        train, test = dataset
        model = LogisticRegression(192, 8, seed=0)
        hook = AllReduceHook(
            TrimChannel(codec_by_name("rht", root_seed=1, row_size=1024), 0.5, seed=2)
        )
        cfg = TrainConfig(epochs=4, batch_size=8, lr=0.1, seed=0, augment=False)
        history = DDPTrainer(model, train, test, world_size=2, hook=hook, config=cfg).train()
        assert history.final_top1 > 0.3
        assert 0.3 < history.records[-1].trim_fraction < 0.7

    def test_deterministic_runs(self, dataset):
        train, test = dataset
        results = []
        for _ in range(2):
            model = LogisticRegression(192, 8, seed=0)
            hook = AllReduceHook(
                TrimChannel(codec_by_name("sd", root_seed=1), 0.3, seed=7)
            )
            cfg = TrainConfig(epochs=2, batch_size=8, lr=0.05, seed=0, augment=False)
            history = DDPTrainer(
                model, train, test, world_size=2, hook=hook, config=cfg
            ).train()
            results.append(model.flat_parameters())
        assert np.array_equal(results[0], results[1])


class TestHistoryQueries:
    def test_wall_clock_accumulates(self, dataset):
        train, test = dataset
        model = LogisticRegression(192, 8, seed=0)
        tm = RoundTimeModel(
            codec_ns_per_coord={"sq": 10.0, "rht": 15.0, "sign": 9.0, "sd": 11.0}
        )
        cfg = TrainConfig(epochs=3, batch_size=8, lr=0.05, seed=0, augment=False)
        history = DDPTrainer(
            model, train, test, world_size=2, config=cfg, time_model=tm
        ).train()
        times = [r.wall_clock_s for r in history.records]
        assert times[0] > 0
        assert times == sorted(times)

    def test_time_to_accuracy(self, dataset):
        train, test = dataset
        model = LogisticRegression(192, 8, seed=0)
        tm = RoundTimeModel(codec_ns_per_coord={"sq": 10.0})
        cfg = TrainConfig(epochs=5, batch_size=8, lr=0.1, seed=0, augment=False)
        history = DDPTrainer(
            model, train, test, world_size=2, config=cfg, time_model=tm
        ).train()
        reachable = history.time_to_accuracy(history.best_top1)
        assert reachable is not None
        assert history.time_to_accuracy(1.01) is None

    def test_accuracy_curve_shape(self, dataset):
        train, test = dataset
        model = LogisticRegression(192, 8, seed=0)
        cfg = TrainConfig(epochs=2, batch_size=8, lr=0.05, seed=0, augment=False)
        history = DDPTrainer(model, train, test, world_size=2, config=cfg).train()
        curve = history.accuracy_curve()
        assert len(curve) == 2
        assert all(len(point) == 2 for point in curve)

    def test_divergence_detection(self, dataset):
        train, test = dataset
        model = LogisticRegression(192, 8, seed=0)
        cfg = TrainConfig(epochs=3, batch_size=8, lr=0.05, seed=0, augment=False)
        trainer = DDPTrainer(
            model, train, test, world_size=2, config=cfg, divergence_loss=1e-9
        )
        history = trainer.train()
        assert history.diverged
        assert len(history.records) == 1  # stopped at the first bad epoch
