"""Tests for layers, modules, and the model zoo."""

import numpy as np
import pytest

from repro.nn import (
    BatchNorm2d,
    Conv2d,
    Linear,
    LogisticRegression,
    MLP,
    MaxPool2d,
    ReLU,
    Sequential,
    Tensor,
    cross_entropy,
    make_vgg,
)


class TestModuleMechanics:
    def test_parameters_discovered_recursively(self):
        model = Sequential(
            Linear(4, 8, np.random.default_rng(0)), ReLU(), Linear(8, 2, np.random.default_rng(1))
        )
        assert len(model.parameters()) == 4  # 2 weights + 2 biases

    def test_parameters_unique(self):
        shared = Linear(4, 4, np.random.default_rng(0))
        model = Sequential(shared, shared)
        assert len(model.parameters()) == 2

    def test_train_eval_propagates(self):
        model = Sequential(BatchNorm2d(3), ReLU())
        model.eval()
        assert all(not m.training for m in model.modules())
        model.train()
        assert all(m.training for m in model.modules())

    def test_num_parameters(self):
        model = Linear(10, 5, np.random.default_rng(0))
        assert model.num_parameters() == 55

    def test_flat_gradient_round_trip(self):
        model = MLP(6, [4], 3, seed=0)
        x = np.random.default_rng(1).standard_normal((2, 6))
        model.zero_grad()
        cross_entropy(model(Tensor(x)), np.array([0, 1])).backward()
        flat = model.flat_gradient()
        assert flat.shape == (model.num_parameters(),)
        model.load_flat_gradient(flat * 2)
        assert np.allclose(model.flat_gradient(), flat * 2)

    def test_flat_gradient_none_grads_are_zero(self):
        model = MLP(6, [4], 3, seed=0)
        assert np.allclose(model.flat_gradient(), 0.0)

    def test_flat_parameters_round_trip(self):
        model = MLP(6, [4], 3, seed=0)
        flat = model.flat_parameters()
        model.load_flat_parameters(flat * 0.5)
        assert np.allclose(model.flat_parameters(), flat * 0.5)

    def test_load_wrong_size_rejected(self):
        model = MLP(6, [4], 3, seed=0)
        with pytest.raises(ValueError):
            model.load_flat_gradient(np.zeros(7))
        with pytest.raises(ValueError):
            model.load_flat_parameters(np.zeros(7))


class TestLayers:
    def test_linear_shapes(self):
        layer = Linear(12, 5, np.random.default_rng(0))
        out = layer(Tensor(np.zeros((3, 12))))
        assert out.shape == (3, 5)

    def test_conv_layer_shapes(self):
        layer = Conv2d(3, 8, kernel_size=3, rng=np.random.default_rng(0), padding=1)
        out = layer(Tensor(np.zeros((2, 3, 8, 8))))
        assert out.shape == (2, 8, 8, 8)

    def test_batchnorm_normalizes_in_train_mode(self):
        bn = BatchNorm2d(4)
        x = Tensor(np.random.default_rng(0).standard_normal((8, 4, 5, 5)) * 3 + 7)
        out = bn(x).numpy()
        assert abs(out.mean()) < 1e-6
        assert abs(out.std() - 1.0) < 1e-2

    def test_batchnorm_running_stats_used_in_eval(self):
        bn = BatchNorm2d(2)
        rng = np.random.default_rng(1)
        for _ in range(50):
            bn(Tensor(rng.standard_normal((16, 2, 3, 3)) * 2 + 5))
        bn.eval()
        x = rng.standard_normal((4, 2, 3, 3)) * 2 + 5
        out = bn(Tensor(x)).numpy()
        # Eval-mode output should be roughly standardized via running stats.
        assert abs(out.mean()) < 0.3
        assert 0.7 < out.std() < 1.3

    def test_batchnorm_backward_runs(self):
        bn = BatchNorm2d(3)
        x = Tensor(np.random.default_rng(0).standard_normal((4, 3, 2, 2)), requires_grad=True)
        bn(x).sum().backward()
        assert bn.gamma.grad is not None
        assert bn.beta.grad is not None
        assert x.grad is not None

    def test_sequential_indexing(self):
        model = Sequential(ReLU(), MaxPool2d(2))
        assert len(model) == 2
        assert isinstance(model[0], ReLU)


class TestModels:
    def test_vgg19_config_matches_paper_depth(self):
        # VGG-19: 16 conv layers + 5 pools in the feature extractor.
        cfg = make_vgg.__globals__["VGG_CONFIGS"]["vgg19"]
        assert sum(1 for c in cfg if c != "M") == 16
        assert sum(1 for c in cfg if c == "M") == 5

    def test_vgg19_parameter_count_plausible(self):
        # Conv trunk of VGG-19 is ~20M parameters; with a small direct
        # classifier for 100 classes we should land in that ballpark.
        model = make_vgg("vgg19", num_classes=100, image_size=32, batch_norm=False, seed=0)
        assert 19e6 < model.num_parameters() < 22e6

    def test_vgg_micro_forward_backward(self):
        model = make_vgg("vgg-micro", num_classes=10, image_size=8, seed=0)
        x = np.random.default_rng(0).standard_normal((4, 3, 8, 8))
        loss = cross_entropy(model(Tensor(x)), np.array([0, 1, 2, 3]))
        loss.backward()
        assert all(p.grad is not None for p in model.parameters())

    def test_vgg_rejects_odd_resolution_pooling(self):
        with pytest.raises(ValueError, match="odd resolution"):
            make_vgg([8, "M", 16, "M"], image_size=6)

    def test_vgg_classifier_head_options(self):
        plain = make_vgg("vgg-micro", num_classes=10, image_size=8, classifier_width=0)
        wide = make_vgg("vgg-micro", num_classes=10, image_size=8, classifier_width=32)
        assert wide.num_parameters() != plain.num_parameters()

    def test_mlp_flattens_images(self):
        model = MLP(3 * 8 * 8, [16], 5, seed=0)
        out = model(Tensor(np.zeros((2, 3, 8, 8))))
        assert out.shape == (2, 5)

    def test_logreg(self):
        model = LogisticRegression(10, 3, seed=0)
        assert model(Tensor(np.zeros((4, 10)))).shape == (4, 3)

    def test_deterministic_init(self):
        a = make_vgg("vgg-micro", num_classes=10, image_size=8, seed=5)
        b = make_vgg("vgg-micro", num_classes=10, image_size=8, seed=5)
        assert np.allclose(a.flat_parameters(), b.flat_parameters())


class TestBatchNormGradients:
    def test_batchnorm_matches_numeric_gradient(self):
        """Full numeric check through BN's mean/var composite backward."""
        from tests.nn.test_tensor import numeric_grad
        from repro.nn import cross_entropy

        rng = np.random.default_rng(7)
        x0 = rng.standard_normal((4, 2, 3, 3))
        labels = np.array([0, 1, 0, 1])

        def build():
            bn = BatchNorm2d(2)
            rng_local = np.random.default_rng(3)
            head = Linear(2 * 9, 2, rng_local)
            return bn, head

        def loss_of(x_arr):
            bn, head = build()
            out = bn(Tensor(x_arr))
            logits = head(out.reshape(4, -1))
            return cross_entropy(logits, labels)

        bn, head = build()
        x = Tensor(x0.copy(), requires_grad=True)
        logits = head(bn(x).reshape(4, -1))
        cross_entropy(logits, labels).backward()
        numeric = numeric_grad(lambda arr: loss_of(arr).item(), x0.copy())
        assert np.allclose(x.grad, numeric, atol=1e-5)

    def test_batchnorm_gamma_beta_numeric_gradient(self):
        from tests.nn.test_tensor import numeric_grad

        rng = np.random.default_rng(8)
        x0 = rng.standard_normal((3, 2, 2, 2))
        bn = BatchNorm2d(2)
        out = bn(Tensor(x0)) * Tensor(rng.standard_normal((3, 2, 2, 2)))
        loss = out.sum()
        loss.backward()
        gamma_auto = bn.gamma.grad.copy()

        def loss_of_gamma(gamma_arr):
            bn2 = BatchNorm2d(2)
            bn2.gamma.data[...] = gamma_arr
            rng2 = np.random.default_rng(8)
            _ = rng2.standard_normal((3, 2, 2, 2))  # reproduce x draw order
            weight = rng2.standard_normal((3, 2, 2, 2))
            out2 = bn2(Tensor(x0)) * Tensor(weight)
            return out2.sum().item()

        numeric = numeric_grad(loss_of_gamma, bn.gamma.data.copy())
        assert np.allclose(gamma_auto, numeric, atol=1e-5)
