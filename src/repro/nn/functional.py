"""Neural-network ops with custom backward passes.

Convolution (via im2col), max pooling, dropout, and a fused, numerically
stable softmax cross-entropy.  Everything integrates with the
:class:`~repro.nn.tensor.Tensor` tape.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .tensor import Tensor

__all__ = ["conv2d", "max_pool2d", "dropout", "log_softmax", "cross_entropy"]


def _im2col(x: np.ndarray, kh: int, kw: int, stride: int) -> np.ndarray:
    """(N, C, H, W) -> (N, OH*OW, C*KH*KW) patch matrix."""
    windows = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride, :, :]  # (N, C, OH, OW, KH, KW)
    n, c, oh, ow = windows.shape[:4]
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(n, oh * ow, c * kh * kw)
    return np.ascontiguousarray(cols)


def _col2im(
    dcols: np.ndarray,
    x_shape: Tuple[int, ...],
    kh: int,
    kw: int,
    stride: int,
    oh: int,
    ow: int,
) -> np.ndarray:
    """Scatter-add the im2col gradient back to the input's shape."""
    n, c, h, w = x_shape
    dx = np.zeros(x_shape, dtype=np.float64)
    patches = dcols.reshape(n, oh, ow, c, kh, kw).transpose(0, 3, 1, 2, 4, 5)
    for i in range(kh):
        for j in range(kw):
            dx[:, :, i : i + stride * oh : stride, j : j + stride * ow : stride] += patches[
                :, :, :, :, i, j
            ]
    return dx


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """2-D convolution (cross-correlation), NCHW layout.

    Args:
        x: input of shape (N, C, H, W).
        weight: filters of shape (F, C, KH, KW).
        bias: optional per-filter bias (F,).
        stride: spatial stride (same in both dimensions).
        padding: symmetric zero padding.
    """
    xp = x.pad2d(padding)
    n, c, h, w = xp.shape
    f, cw, kh, kw = weight.shape
    if cw != c:
        raise ValueError(f"channel mismatch: input {c}, weight {cw}")
    if h < kh or w < kw:
        raise ValueError(f"kernel {kh}x{kw} larger than padded input {h}x{w}")
    oh = (h - kh) // stride + 1
    ow = (w - kw) // stride + 1

    cols = _im2col(xp.data, kh, kw, stride)  # (N, OH*OW, CKK)
    w2 = weight.data.reshape(f, -1)  # (F, CKK)
    out_data = (cols @ w2.T).transpose(0, 2, 1).reshape(n, f, oh, ow)

    def backward(g: np.ndarray) -> None:
        g2 = np.asarray(g).transpose(0, 2, 3, 1).reshape(n, oh * ow, f)
        if weight.requires_grad:
            dw = np.einsum("nof,noc->fc", g2, cols).reshape(weight.shape)
            weight._accumulate(dw)
        if xp.requires_grad:
            dcols = g2 @ w2  # (N, OH*OW, CKK)
            xp._accumulate(_col2im(dcols, xp.shape, kh, kw, stride, oh, ow))

    out = x._make(out_data, (xp, weight), backward)
    if bias is not None:
        out = out + bias.reshape(1, f, 1, 1)
    return out


def max_pool2d(x: Tensor, kernel: int = 2) -> Tensor:
    """Non-overlapping max pooling (stride == kernel), NCHW layout."""
    n, c, h, w = x.shape
    if h % kernel or w % kernel:
        raise ValueError(f"spatial dims ({h},{w}) not divisible by kernel {kernel}")
    oh, ow = h // kernel, w // kernel
    windows = x.data.reshape(n, c, oh, kernel, ow, kernel).transpose(0, 1, 2, 4, 3, 5)
    flat = windows.reshape(n, c, oh, ow, kernel * kernel)
    arg = flat.argmax(axis=-1)
    out_data = np.take_along_axis(flat, arg[..., None], axis=-1).squeeze(-1)

    def backward(g: np.ndarray) -> None:
        if not x.requires_grad:
            return
        dflat = np.zeros_like(flat)
        np.put_along_axis(dflat, arg[..., None], np.asarray(g)[..., None], axis=-1)
        dx = (
            dflat.reshape(n, c, oh, ow, kernel, kernel)
            .transpose(0, 1, 2, 4, 3, 5)
            .reshape(n, c, h, w)
        )
        x._accumulate(dx)

    return x._make(out_data, (x,), backward)


def dropout(x: Tensor, p: float, rng: np.random.Generator, training: bool = True) -> Tensor:
    """Inverted dropout: zero with probability ``p``, scale by 1/(1-p)."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    if not training or p <= 0.0:
        return x
    mask = (rng.random(x.shape) >= p) / (1.0 - p)
    return x * Tensor(mask)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax of a raw array."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Fused softmax cross-entropy, mean over the batch.

    Args:
        logits: (N, K) raw scores.
        labels: (N,) integer class ids.
    """
    labels = np.asarray(labels, dtype=np.int64)
    n, k = logits.shape
    if labels.shape != (n,):
        raise ValueError(f"labels shape {labels.shape} != ({n},)")
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise ValueError("label id out of range")
    logp = log_softmax(logits.data)
    target = np.zeros((n, k))
    target[np.arange(n), labels] = 1.0
    loss_value = -(target * logp).sum() / n

    def backward(g: np.ndarray) -> None:
        if logits.requires_grad:
            probs = np.exp(logp)
            logits._accumulate(np.asarray(g) * (probs - target) / n)

    return logits._make(np.asarray(loss_value), (logits,), backward)
