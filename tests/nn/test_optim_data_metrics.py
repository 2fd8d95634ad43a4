"""Tests for optimizers, schedulers, data pipeline, and metrics."""

import numpy as np
import pytest

from repro.nn import (
    SGD,
    DataLoader,
    LogisticRegression,
    StepLR,
    Tensor,
    cross_entropy,
    evaluate,
    make_dataset,
    topk_accuracy,
)
from repro.nn.layers import Parameter


class TestSGD:
    def test_plain_step(self):
        p = Parameter(np.array([1.0]))
        opt = SGD([p], lr=0.1, momentum=0.0)
        p.grad = np.array([2.0])
        opt.step()
        assert np.allclose(p.data, [0.8])

    def test_momentum_accumulates(self):
        p = Parameter(np.array([0.0]))
        opt = SGD([p], lr=1.0, momentum=0.5)
        for expected in [-1.0, -2.5]:  # v: 1, then 1.5
            p.grad = np.array([1.0])
            opt.step()
            assert np.allclose(p.data, [expected])

    def test_none_grad_skipped(self):
        p = Parameter(np.array([3.0]))
        SGD([p], lr=0.1).step()
        assert np.allclose(p.data, [3.0])

    def test_zero_grad(self):
        p = Parameter(np.array([1.0]))
        opt = SGD([p], lr=0.1)
        p.grad = np.array([1.0])
        opt.zero_grad()
        assert p.grad is None

    def test_validation(self):
        p = Parameter(np.array([1.0]))
        with pytest.raises(ValueError):
            SGD([p], lr=0.0)
        with pytest.raises(ValueError):
            SGD([p], lr=0.1, momentum=1.0)
        with pytest.raises(ValueError):
            SGD([], lr=0.1)

    def test_converges_on_quadratic(self):
        p = Parameter(np.array([5.0]))
        opt = SGD([p], lr=0.1, momentum=0.9)
        for _ in range(200):
            p.grad = 2 * (p.data - 1.0)  # d/dp (p-1)^2
            opt.step()
        assert np.allclose(p.data, [1.0], atol=1e-4)


class TestStepLR:
    def test_decay_schedule(self):
        p = Parameter(np.array([0.0]))
        opt = SGD([p], lr=1e-3)
        sched = StepLR(opt, step_size=2, gamma=0.1)
        lrs = []
        for _ in range(5):
            lrs.append(opt.lr)
            sched.step()
        assert lrs == pytest.approx([1e-3, 1e-3, 1e-4, 1e-4, 1e-5])

    def test_validation(self):
        opt = SGD([Parameter(np.array([0.0]))], lr=1e-3)
        with pytest.raises(ValueError):
            StepLR(opt, step_size=0)


class TestDataset:
    def test_shapes_and_labels(self):
        train, test = make_dataset(num_classes=7, train_per_class=4, test_per_class=2,
                                   image_size=8, seed=0)
        assert train.images.shape == (28, 3, 8, 8)
        assert test.images.shape == (14, 3, 8, 8)
        assert set(np.unique(train.labels)) == set(range(7))

    def test_normalized(self):
        train, _ = make_dataset(num_classes=5, train_per_class=10, seed=0)
        assert abs(train.images.mean()) < 1e-9
        assert abs(train.images.std() - 1.0) < 1e-6

    def test_deterministic(self):
        a, _ = make_dataset(num_classes=3, train_per_class=2, seed=9)
        b, _ = make_dataset(num_classes=3, train_per_class=2, seed=9)
        assert np.allclose(a.images, b.images)

    def test_classes_are_learnable(self):
        """A linear probe beats chance comfortably at moderate noise."""
        train, test = make_dataset(num_classes=5, train_per_class=30,
                                   test_per_class=10, noise=1.0, seed=1)
        model = LogisticRegression(3 * 8 * 8, 5, seed=0)
        opt = SGD(model.parameters(), lr=0.1, momentum=0.9)
        loader = DataLoader(train, batch_size=25, seed=0)
        for _ in range(15):
            for images, labels in loader:
                opt.zero_grad()
                cross_entropy(model(Tensor(images)), labels).backward()
                opt.step()
        acc = evaluate(model, test)
        assert acc[1] > 0.5  # chance is 0.2


class TestDataLoader:
    def test_batch_shapes(self):
        train, _ = make_dataset(num_classes=4, train_per_class=8, seed=0)
        loader = DataLoader(train, batch_size=8, seed=0)
        batches = list(loader)
        assert len(batches) == 4
        assert batches[0][0].shape == (8, 3, 8, 8)

    def test_drop_last(self):
        train, _ = make_dataset(num_classes=3, train_per_class=3, seed=0)  # 9 samples
        assert len(DataLoader(train, batch_size=4, drop_last=True)) == 2
        assert len(DataLoader(train, batch_size=4, drop_last=False)) == 3

    def test_shuffle_changes_order(self):
        train, _ = make_dataset(num_classes=4, train_per_class=8, seed=0)
        first = next(iter(DataLoader(train, batch_size=8, shuffle=True, seed=1)))[1]
        ordered = next(iter(DataLoader(train, batch_size=8, shuffle=False)))[1]
        assert not np.array_equal(first, ordered)

    def test_augment_preserves_shape(self):
        train, _ = make_dataset(num_classes=3, train_per_class=8, seed=0)
        images, _ = next(iter(DataLoader(train, batch_size=8, augment=True, seed=0)))
        assert images.shape == (8, 3, 8, 8)

    def test_invalid_batch_size(self):
        train, _ = make_dataset(num_classes=2, train_per_class=2, seed=0)
        with pytest.raises(ValueError):
            DataLoader(train, batch_size=0)


class TestMetrics:
    def test_top1(self):
        logits = np.array([[0.1, 0.9], [0.8, 0.2]])
        assert topk_accuracy(logits, np.array([1, 0]), k=1) == 1.0
        assert topk_accuracy(logits, np.array([0, 1]), k=1) == 0.0

    def test_top5_includes_lower_ranks(self):
        logits = np.arange(10, dtype=float)[None, :]
        assert topk_accuracy(logits, np.array([5]), k=5) == 1.0
        assert topk_accuracy(logits, np.array([4]), k=5) == 0.0

    def test_k_clamped_to_classes(self):
        logits = np.array([[1.0, 2.0]])
        assert topk_accuracy(logits, np.array([0]), k=10) == 1.0

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            topk_accuracy(np.zeros(3), np.zeros(3, dtype=int))
