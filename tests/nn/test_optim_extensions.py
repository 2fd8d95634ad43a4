"""Tests for Adam."""

import numpy as np
import pytest

from repro.nn.layers import Parameter
from repro.nn.optim import Adam


class TestAdam:
    def test_first_step_moves_by_lr(self):
        """With bias correction, the first Adam step is ~lr * sign(g)."""
        p = Parameter(np.array([0.0]))
        opt = Adam([p], lr=0.1)
        p.grad = np.array([3.0])
        opt.step()
        assert np.allclose(p.data, [-0.1], atol=1e-6)

    def test_scale_invariance(self):
        """Adam's update direction is invariant to gradient scale."""
        trajectories = []
        for scale in [1.0, 1000.0]:
            p = Parameter(np.array([1.0]))
            opt = Adam([p], lr=0.01)
            for _ in range(10):
                p.grad = np.array([scale * 2.0])
                opt.step()
            trajectories.append(p.data.copy())
        assert np.allclose(trajectories[0], trajectories[1], atol=1e-6)

    def test_converges_on_quadratic(self):
        p = Parameter(np.array([5.0]))
        opt = Adam([p], lr=0.1)
        for _ in range(500):
            p.grad = 2 * (p.data - 1.0)
            opt.step()
        assert np.allclose(p.data, [1.0], atol=1e-2)

    def test_none_grad_skipped(self):
        p = Parameter(np.array([1.0]))
        Adam([p], lr=0.1).step()
        assert np.allclose(p.data, [1.0])

    def test_validation(self):
        p = Parameter(np.array([1.0]))
        with pytest.raises(ValueError):
            Adam([p], lr=0.0)
        with pytest.raises(ValueError):
            Adam([p], betas=(1.0, 0.999))
        with pytest.raises(ValueError):
            Adam([], lr=0.1)

