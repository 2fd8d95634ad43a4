"""Optimizers and LR schedulers.

The paper's training recipe (Section 4.1 footnote): SGD with momentum
0.9, initial learning rate 1e-3 with a StepLR schedule, cross-entropy
loss.  Adam is included for the optimizer-sensitivity ablation (how
each optimizer reacts to trimmed-gradient noise).
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from .layers import Parameter

__all__ = ["SGD", "Adam", "StepLR"]


class SGD:
    """Stochastic gradient descent with classical momentum.

    ``v <- mu*v + g;  p <- p - lr*v``
    """

    def __init__(
        self,
        parameters: Sequence[Parameter],
        lr: float = 1e-3,
        momentum: float = 0.9,
    ) -> None:
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.parameters: List[Parameter] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received no parameters")
        self.lr = lr
        self.momentum = momentum
        self._velocity = [np.zeros_like(p.data) for p in self.parameters]

    def zero_grad(self) -> None:
        for p in self.parameters:
            p.zero_grad()

    def step(self) -> None:
        """Apply one update from the accumulated gradients."""
        for p, v in zip(self.parameters, self._velocity):
            if p.grad is None:
                continue
            v *= self.momentum
            v += p.grad
            p.data -= self.lr * v

    def state_dict(self) -> dict:
        """Momentum buffers + current lr, JSON-ready (for checkpoints)."""
        return {
            "lr": self.lr,
            "velocity": [v.ravel().tolist() for v in self._velocity],
        }

    def load_state_dict(self, state: dict) -> None:
        """Inverse of :meth:`state_dict` (shapes come from the params)."""
        buffers = state["velocity"]
        if len(buffers) != len(self._velocity):
            raise ValueError(
                f"state has {len(buffers)} velocity buffers, "
                f"optimizer has {len(self._velocity)}"
            )
        self.lr = float(state["lr"])
        for v, flat in zip(self._velocity, buffers):
            values = np.asarray(flat, dtype=v.dtype)
            if values.size != v.size:
                raise ValueError(
                    f"velocity buffer size {values.size} != {v.size}"
                )
            v[...] = values.reshape(v.shape)


class Adam:
    """Adam with bias correction (Kingma & Ba).

    Included for the trimming ablation: Adam's per-coordinate second-
    moment normalization reacts very differently to the sign codec's
    biased ±σ noise than momentum-SGD does.
    """

    def __init__(
        self,
        parameters: Sequence[Parameter],
        lr: float = 1e-3,
        betas: tuple = (0.9, 0.999),
        eps: float = 1e-8,
    ) -> None:
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        beta1, beta2 = betas
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ValueError(f"betas must be in [0, 1), got {betas}")
        self.parameters: List[Parameter] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received no parameters")
        self.lr = lr
        self.beta1, self.beta2 = beta1, beta2
        self.eps = eps
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]
        self._t = 0

    def zero_grad(self) -> None:
        for p in self.parameters:
            p.zero_grad()

    def step(self) -> None:
        """One Adam update from the accumulated gradients."""
        self._t += 1
        correction1 = 1.0 - self.beta1**self._t
        correction2 = 1.0 - self.beta2**self._t
        for p, m, v in zip(self.parameters, self._m, self._v):
            if p.grad is None:
                continue
            grad = p.grad
            m *= self.beta1
            m += (1 - self.beta1) * grad
            v *= self.beta2
            v += (1 - self.beta2) * grad * grad
            m_hat = m / correction1
            v_hat = v / correction2
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


class StepLR:
    """Multiply the learning rate by ``gamma`` every ``step_size`` epochs."""

    def __init__(self, optimizer: SGD, step_size: int = 50, gamma: float = 0.1) -> None:
        if step_size <= 0:
            raise ValueError("step_size must be positive")
        self.optimizer = optimizer
        self.step_size = step_size
        self.gamma = gamma
        self.base_lr = optimizer.lr
        self.epoch = 0

    def step(self) -> None:
        """Advance one epoch and update the optimizer's lr."""
        self.epoch += 1
        decays = self.epoch // self.step_size
        self.optimizer.lr = self.base_lr * (self.gamma**decays)

    def set_epoch(self, epoch: int) -> None:
        """Jump to ``epoch`` completed steps (checkpoint restore)."""
        if epoch < 0:
            raise ValueError(f"epoch must be non-negative, got {epoch}")
        self.epoch = epoch
        decays = self.epoch // self.step_size
        self.optimizer.lr = self.base_lr * (self.gamma**decays)

    @property
    def lr(self) -> float:
        return self.optimizer.lr

