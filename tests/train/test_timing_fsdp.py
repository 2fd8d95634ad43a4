"""Tests for the round-time cost model and the FSDP trainer."""

import numpy as np
import pytest

from repro.core import codec_by_name
from repro.nn import LogisticRegression, make_dataset
from repro.train import (
    FSDPTrainer,
    RoundTimeModel,
    TrainConfig,
    TrimChannel,
    measure_codec_throughput,
)

MEASURED = {"sign": 8.0, "sq": 10.0, "sd": 12.0, "rht": 14.0}


def model_size_vgg19() -> int:
    return 20_000_000  # ~VGG-19 coordinate count


class TestRoundTimeModel:
    def test_baseline_has_no_encode_cost(self):
        tm = RoundTimeModel(codec_ns_per_coord=MEASURED)
        rt = tm.round_time(model_size_vgg19(), codec_name=None)
        assert rt.encode_s == 0.0
        assert rt.compute_s > 0
        assert rt.comm_s > 0

    def test_encode_overhead_in_paper_range(self):
        """Scalar codec adds ~42-68% per round (Section 4.4)."""
        tm = RoundTimeModel(codec_ns_per_coord=MEASURED)
        base = tm.round_time(model_size_vgg19()).total_s
        sq = tm.round_time(model_size_vgg19(), codec_name="sq").total_s
        overhead = sq / base - 1.0
        assert 0.2 < overhead < 0.8

    def test_rht_slower_than_scalar(self):
        tm = RoundTimeModel(codec_ns_per_coord=MEASURED)
        sq = tm.round_time(model_size_vgg19(), codec_name="sq").total_s
        rht = tm.round_time(model_size_vgg19(), codec_name="rht").total_s
        assert rht > sq
        assert rht / sq < 1.6

    def test_trimming_reduces_comm(self):
        tm = RoundTimeModel(codec_ns_per_coord=MEASURED)
        full = tm.round_time(model_size_vgg19(), codec_name="sq", trim_rate=0.0)
        trimmed = tm.round_time(model_size_vgg19(), codec_name="sq", trim_rate=0.5)
        assert trimmed.comm_s < full.comm_s

    def test_world_size_scales_bytes(self):
        tm = RoundTimeModel(codec_ns_per_coord=MEASURED)
        two = tm.round_time(10**7, world_size=2)
        eight = tm.round_time(10**7, world_size=8)
        assert eight.comm_s > two.comm_s

    def test_unknown_codec_rejected(self):
        tm = RoundTimeModel(codec_ns_per_coord=MEASURED)
        with pytest.raises(KeyError):
            tm.round_time(1000, codec_name="zstd")

    def test_round_time_as_dict(self):
        tm = RoundTimeModel(codec_ns_per_coord=MEASURED)
        d = tm.round_time(1000).as_dict()
        assert d["total_s"] == pytest.approx(d["compute_s"] + d["encode_s"] + d["comm_s"])


class TestMeasuredThroughput:
    def test_measurement_returns_positive_ns(self):
        table = measure_codec_throughput(num_coords=2**12, repeats=1)
        assert set(table) == {"sign", "sq", "sd", "rht"}
        assert all(v > 0 for v in table.values())

    def test_rht_costs_more_than_sign(self):
        table = measure_codec_throughput(num_coords=2**15, repeats=2)
        assert table["rht"] > table["sign"]


class TestFSDP:
    @pytest.fixture(scope="class")
    def dataset(self):
        return make_dataset(
            num_classes=6, train_per_class=16, test_per_class=8,
            image_size=8, noise=1.0, seed=0,
        )

    def test_perfect_channels_train(self, dataset):
        train, test = dataset
        model = LogisticRegression(192, 6, seed=0)
        cfg = TrainConfig(epochs=4, batch_size=8, lr=0.1, seed=0, augment=False)
        trainer = FSDPTrainer(model, train, test, world_size=2, config=cfg)
        history = trainer.train()
        assert history[-1]["train_loss"] < history[0]["train_loss"]
        assert history[-1]["top1"] > 1.0 / 6

    def test_trimmed_weight_gather_tolerated(self, dataset):
        """Section 5.5: imperfect gathered weights have limited impact."""
        train, test = dataset
        model = LogisticRegression(192, 6, seed=0)
        gather = TrimChannel(
            codec_by_name("rht", root_seed=1, row_size=1024), trim_rate=0.3, seed=4
        )
        cfg = TrainConfig(epochs=4, batch_size=8, lr=0.1, seed=0, augment=False)
        trainer = FSDPTrainer(
            model, train, test, world_size=2, gather_channel=gather, config=cfg
        )
        history = trainer.train()
        assert history[-1]["top1"] > 0.3
        assert gather.stats.packets_trimmed > 0

    def test_sharded_update_matches_ddp_math(self, dataset):
        """With perfect channels and no momentum, FSDP == plain SGD."""
        train, test = dataset
        cfg = TrainConfig(epochs=1, batch_size=8, lr=0.1, seed=0, augment=False)

        fsdp_model = LogisticRegression(192, 6, seed=3)
        trainer = FSDPTrainer(fsdp_model, train, test, world_size=2, config=cfg)
        batches = [next(iter(loader)) for loader in trainer.loaders]
        trainer._round(batches, epoch=1)

        from repro.nn import SGD, Tensor, cross_entropy

        solo = LogisticRegression(192, 6, seed=3)
        opt = SGD(solo.parameters(), lr=0.1, momentum=0.0)
        images = np.concatenate([b[0] for b in batches])
        labels = np.concatenate([b[1] for b in batches])
        solo.zero_grad()
        cross_entropy(solo(Tensor(images)), labels).backward()
        opt.step()
        assert np.allclose(fsdp_model.flat_parameters(), solo.flat_parameters(), atol=1e-10)
