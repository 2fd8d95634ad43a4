"""Tests for the autograd engine, including numeric gradient checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import Tensor, is_grad_enabled, no_grad


def numeric_grad(f, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of scalar f at x."""
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        x[idx] += eps
        hi = f(x)
        x[idx] -= 2 * eps
        lo = f(x)
        x[idx] += eps
        grad[idx] = (hi - lo) / (2 * eps)
        it.iternext()
    return grad


class TestBasicOps:
    def test_add_backward(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        (a + b).sum().backward()
        assert np.allclose(a.grad, [1, 1])
        assert np.allclose(b.grad, [1, 1])

    def test_mul_backward(self):
        a = Tensor([2.0, 3.0], requires_grad=True)
        b = Tensor([5.0, 7.0], requires_grad=True)
        (a * b).sum().backward()
        assert np.allclose(a.grad, [5, 7])
        assert np.allclose(b.grad, [2, 3])

    def test_div_backward(self):
        a = Tensor([6.0], requires_grad=True)
        b = Tensor([2.0], requires_grad=True)
        (a / b).backward()
        assert np.allclose(a.grad, [0.5])
        assert np.allclose(b.grad, [-1.5])

    def test_pow_backward(self):
        a = Tensor([3.0], requires_grad=True)
        (a**2).backward()
        assert np.allclose(a.grad, [6.0])

    def test_matmul_backward(self):
        a = Tensor(np.arange(6, dtype=float).reshape(2, 3), requires_grad=True)
        b = Tensor(np.arange(12, dtype=float).reshape(3, 4), requires_grad=True)
        (a @ b).sum().backward()
        assert np.allclose(a.grad, b.data.sum(axis=1, keepdims=True).T.repeat(2, 0))
        assert np.allclose(b.grad, a.data.sum(axis=0)[:, None].repeat(4, 1))

    def test_scalar_right_ops(self):
        a = Tensor([2.0], requires_grad=True)
        (3.0 * a + 1.0 - a / 2.0).backward()
        assert np.allclose(a.grad, [2.5])

    def test_rsub_rdiv(self):
        a = Tensor([2.0], requires_grad=True)
        out = 10.0 - a
        out.backward()
        assert np.allclose(a.grad, [-1.0])
        b = Tensor([4.0], requires_grad=True)
        (8.0 / b).backward()
        assert np.allclose(b.grad, [-0.5])


class TestBroadcasting:
    def test_broadcast_add(self):
        a = Tensor(np.ones((3, 4)), requires_grad=True)
        b = Tensor(np.ones(4), requires_grad=True)
        (a + b).sum().backward()
        assert a.grad.shape == (3, 4)
        assert np.allclose(b.grad, [3, 3, 3, 3])

    def test_broadcast_keepdim_axis(self):
        a = Tensor(np.ones((2, 5)), requires_grad=True)
        b = Tensor(np.ones((2, 1)), requires_grad=True)
        (a * b).sum().backward()
        assert np.allclose(b.grad, [[5], [5]])

    def test_scalar_broadcast(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(2.0, requires_grad=True)
        (a * b).sum().backward()
        assert np.allclose(b.grad, 4.0)


class TestReductionsAndShapes:
    def test_mean_gradient(self):
        a = Tensor(np.ones((4, 5)), requires_grad=True)
        a.mean().backward()
        assert np.allclose(a.grad, 1.0 / 20)

    def test_sum_axis_keepdims(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        a.sum(axis=1, keepdims=True).sum().backward()
        assert np.allclose(a.grad, 1.0)

    def test_mean_tuple_axis(self):
        a = Tensor(np.ones((2, 3, 4, 5)), requires_grad=True)
        a.mean(axis=(0, 2, 3), keepdims=True).sum().backward()
        assert np.allclose(a.grad, 1.0 / 40)

    def test_max_gradient_goes_to_argmax(self):
        a = Tensor([[1.0, 5.0, 2.0]], requires_grad=True)
        a.max(axis=1).backward()
        assert np.allclose(a.grad, [[0, 1, 0]])

    def test_max_ties_split(self):
        a = Tensor([[3.0, 3.0]], requires_grad=True)
        a.max(axis=1).backward()
        assert np.allclose(a.grad, [[0.5, 0.5]])

    def test_reshape_transpose(self):
        a = Tensor(np.arange(6, dtype=float), requires_grad=True)
        out = a.reshape(2, 3).transpose()
        assert out.shape == (3, 2)
        out.sum().backward()
        assert np.allclose(a.grad, 1.0)

    def test_getitem_scatter(self):
        a = Tensor(np.arange(5, dtype=float), requires_grad=True)
        a[1:3].sum().backward()
        assert np.allclose(a.grad, [0, 1, 1, 0, 0])

    def test_pad2d_round_trip(self):
        a = Tensor(np.ones((1, 1, 2, 2)), requires_grad=True)
        padded = a.pad2d(1)
        assert padded.shape == (1, 1, 4, 4)
        padded.sum().backward()
        assert np.allclose(a.grad, 1.0)


class TestElementwise:
    def test_relu(self):
        a = Tensor([-1.0, 2.0], requires_grad=True)
        a.relu().sum().backward()
        assert np.allclose(a.grad, [0, 1])

    def test_exp_log_tanh_sqrt(self):
        for fn, ref in [
            ("exp", lambda v: np.exp(v)),
            ("log", lambda v: 1 / v),
            ("tanh", lambda v: 1 - np.tanh(v) ** 2),
            ("sqrt", lambda v: 0.5 / np.sqrt(v)),
        ]:
            a = Tensor([0.7, 1.3], requires_grad=True)
            getattr(a, fn)().sum().backward()
            expected = ref(np.array([0.7, 1.3]))
            assert np.allclose(a.grad, expected), fn


class TestGraphMechanics:
    def test_grad_accumulates_across_uses(self):
        a = Tensor([2.0], requires_grad=True)
        (a * a + a).backward()  # d/da (a^2 + a) = 2a + 1 = 5
        assert np.allclose(a.grad, [5.0])

    def test_diamond_graph(self):
        a = Tensor([1.0], requires_grad=True)
        b = a * 2.0
        c = a * 3.0
        (b + c).backward()
        assert np.allclose(a.grad, [5.0])

    def test_backward_requires_grad(self):
        with pytest.raises(RuntimeError):
            Tensor([1.0]).backward()

    def test_no_grad_blocks_tape(self):
        a = Tensor([1.0], requires_grad=True)
        with no_grad():
            out = a * 2.0
        assert not out.requires_grad

    def test_nested_no_grad_restores_each_level(self):
        a = Tensor([1.0], requires_grad=True)
        with no_grad():
            with no_grad():
                assert not is_grad_enabled()
            assert not is_grad_enabled()  # the inner exit restores "off"
            assert not (a * 2.0).requires_grad
        assert is_grad_enabled()
        assert (a * 2.0).requires_grad

    def test_no_grad_restores_on_exception(self):
        with pytest.raises(ZeroDivisionError):
            with no_grad():
                1 / 0
        assert is_grad_enabled()
        assert (Tensor([1.0], requires_grad=True) * 2.0).requires_grad

    def test_detach(self):
        a = Tensor([1.0], requires_grad=True)
        assert not a.detach().requires_grad

    def test_zero_grad(self):
        a = Tensor([1.0], requires_grad=True)
        (a * 2).backward()
        a.zero_grad()
        assert a.grad is None

    def test_deep_chain_no_recursion_error(self):
        a = Tensor([1.0], requires_grad=True)
        out = a
        for _ in range(5000):
            out = out + 1.0
        out.backward()
        assert np.allclose(a.grad, [1.0])


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_composite_matches_numeric_gradient(seed):
    """Random composite expression: autograd == central differences."""
    rng = np.random.default_rng(seed)
    x0 = rng.uniform(0.5, 1.5, size=(3, 4))

    def f(x_arr):
        x = Tensor(x_arr, requires_grad=True)
        y = ((x * 2.0 + 1.0).tanh() * x.sqrt() + (x @ np.ones((4, 2))).relu().sum()).mean()
        return y

    x = Tensor(x0.copy(), requires_grad=True)
    y = ((x * 2.0 + 1.0).tanh() * x.sqrt() + (x @ np.ones((4, 2))).relu().sum()).mean()
    y.backward()
    auto = x.grad
    numeric = numeric_grad(lambda arr: f(arr).item(), x0.copy())
    assert np.allclose(auto, numeric, atol=1e-5)
