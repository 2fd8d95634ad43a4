"""Tests for conv/pool/dropout/cross-entropy, with numeric grad checks."""

import numpy as np
import pytest

from repro.nn import Tensor, conv2d, cross_entropy, log_softmax, max_pool2d
from repro.nn.functional import dropout

from .test_tensor import numeric_grad


def reference_conv(x, w, stride=1, padding=0):
    """Direct-loop convolution for correctness checks."""
    n, c, h, w_in = x.shape
    f, _, kh, kw = w.shape
    xp = np.pad(x, [(0, 0), (0, 0), (padding, padding), (padding, padding)])
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w_in + 2 * padding - kw) // stride + 1
    out = np.zeros((n, f, oh, ow))
    for b in range(n):
        for ff in range(f):
            for i in range(oh):
                for j in range(ow):
                    patch = xp[b, :, i * stride : i * stride + kh, j * stride : j * stride + kw]
                    out[b, ff, i, j] = (patch * w[ff]).sum()
    return out


class TestConv2d:
    def test_matches_reference(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 3, 6, 6))
        w = rng.standard_normal((4, 3, 3, 3))
        for stride, padding in [(1, 0), (1, 1), (2, 1), (2, 0)]:
            out = conv2d(Tensor(x), Tensor(w), stride=stride, padding=padding)
            ref = reference_conv(x, w, stride=stride, padding=padding)
            assert np.allclose(out.numpy(), ref), (stride, padding)

    def test_bias_broadcasts(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.standard_normal((1, 2, 4, 4)))
        w = Tensor(rng.standard_normal((3, 2, 3, 3)))
        b = Tensor(np.array([10.0, 20.0, 30.0]))
        out = conv2d(x, w, b, padding=1)
        no_bias = conv2d(x, w, padding=1)
        diff = out.numpy() - no_bias.numpy()
        assert np.allclose(diff[0, 0], 10.0)
        assert np.allclose(diff[0, 2], 30.0)

    def test_gradients_match_numeric(self):
        rng = np.random.default_rng(2)
        x0 = rng.standard_normal((2, 2, 5, 5))
        w0 = rng.standard_normal((3, 2, 3, 3))

        x = Tensor(x0.copy(), requires_grad=True)
        w = Tensor(w0.copy(), requires_grad=True)
        conv2d(x, w, stride=2, padding=1).sum().backward()

        def loss_x(arr):
            return conv2d(Tensor(arr), Tensor(w0), stride=2, padding=1).sum().item()

        def loss_w(arr):
            return conv2d(Tensor(x0), Tensor(arr), stride=2, padding=1).sum().item()

        assert np.allclose(x.grad, numeric_grad(loss_x, x0.copy()), atol=1e-5)
        assert np.allclose(w.grad, numeric_grad(loss_w, w0.copy()), atol=1e-5)

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ValueError, match="channel mismatch"):
            conv2d(Tensor(np.zeros((1, 3, 4, 4))), Tensor(np.zeros((2, 4, 3, 3))))

    def test_kernel_too_large_rejected(self):
        with pytest.raises(ValueError, match="larger than"):
            conv2d(Tensor(np.zeros((1, 1, 2, 2))), Tensor(np.zeros((1, 1, 3, 3))))


class TestMaxPool:
    def test_values(self):
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        out = max_pool2d(Tensor(x), kernel=2)
        assert np.allclose(out.numpy(), [[[[5, 7], [13, 15]]]])

    def test_gradient_routes_to_max(self):
        x0 = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        x = Tensor(x0, requires_grad=True)
        max_pool2d(x, 2).sum().backward()
        expected = np.zeros((1, 1, 4, 4))
        expected[0, 0, 1, 1] = expected[0, 0, 1, 3] = 1
        expected[0, 0, 3, 1] = expected[0, 0, 3, 3] = 1
        assert np.allclose(x.grad, expected)

    def test_numeric_gradient(self):
        rng = np.random.default_rng(3)
        x0 = rng.standard_normal((2, 3, 4, 4))
        x = Tensor(x0.copy(), requires_grad=True)
        (max_pool2d(x, 2) * Tensor(np.ones((2, 3, 2, 2)) * 2)).sum().backward()

        def loss(arr):
            return (max_pool2d(Tensor(arr), 2) * Tensor(np.ones((2, 3, 2, 2)) * 2)).sum().item()

        assert np.allclose(x.grad, numeric_grad(loss, x0.copy()), atol=1e-5)

    def test_indivisible_rejected(self):
        with pytest.raises(ValueError, match="not divisible"):
            max_pool2d(Tensor(np.zeros((1, 1, 5, 5))), 2)


class TestDropout:
    def test_eval_mode_identity(self):
        x = Tensor(np.ones(100))
        out = dropout(x, 0.5, np.random.default_rng(0), training=False)
        assert out is x

    def test_zero_p_identity(self):
        x = Tensor(np.ones(100))
        assert dropout(x, 0.0, np.random.default_rng(0)) is x

    def test_scaling_preserves_mean(self):
        rng = np.random.default_rng(1)
        x = Tensor(np.ones(100_000))
        out = dropout(x, 0.3, rng)
        assert abs(out.numpy().mean() - 1.0) < 0.02

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            dropout(Tensor(np.ones(3)), 1.0, np.random.default_rng(0))


class TestSoftmaxCrossEntropy:
    def test_softmax_rows_sum_to_one(self):
        logits = np.random.default_rng(0).standard_normal((7, 5)) * 20
        probs = np.exp(log_softmax(logits))
        assert np.allclose(probs.sum(axis=1), 1.0)
        assert np.all(probs >= 0)

    def test_log_softmax_stable_at_large_logits(self):
        logits = np.array([[1000.0, 0.0]])
        out = log_softmax(logits)
        assert np.all(np.isfinite(out))
        assert out[0, 0] == pytest.approx(0.0)

    def test_uniform_logits_loss_is_log_k(self):
        logits = Tensor(np.zeros((4, 10)), requires_grad=True)
        loss = cross_entropy(logits, np.zeros(4, dtype=int))
        assert loss.item() == pytest.approx(np.log(10))

    def test_gradient_is_probs_minus_onehot(self):
        rng = np.random.default_rng(4)
        raw = rng.standard_normal((6, 5))
        labels = rng.integers(0, 5, 6)
        logits = Tensor(raw, requires_grad=True)
        cross_entropy(logits, labels).backward()
        probs = np.exp(log_softmax(raw))
        onehot = np.eye(5)[labels]
        assert np.allclose(logits.grad, (probs - onehot) / 6)

    def test_numeric_gradient(self):
        rng = np.random.default_rng(5)
        raw = rng.standard_normal((3, 4))
        labels = np.array([1, 0, 3])
        logits = Tensor(raw.copy(), requires_grad=True)
        cross_entropy(logits, labels).backward()

        def loss(arr):
            return cross_entropy(Tensor(arr), labels).item()

        assert np.allclose(logits.grad, numeric_grad(loss, raw.copy()), atol=1e-6)

    def test_bad_labels_rejected(self):
        logits = Tensor(np.zeros((2, 3)))
        with pytest.raises(ValueError, match="out of range"):
            cross_entropy(logits, np.array([0, 5]))
        with pytest.raises(ValueError, match="labels shape"):
            cross_entropy(logits, np.array([0]))
