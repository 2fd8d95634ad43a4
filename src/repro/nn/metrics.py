"""Evaluation metrics: top-k accuracy."""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from .data import SyntheticImages
from .layers import Module
from .tensor import Tensor, no_grad

__all__ = ["topk_accuracy", "evaluate"]


def topk_accuracy(logits: np.ndarray, labels: np.ndarray, k: int = 1) -> float:
    """Fraction of rows whose true label is among the top-k scores."""
    logits = np.asarray(logits)
    labels = np.asarray(labels)
    if logits.ndim != 2:
        raise ValueError(f"logits must be 2-D, got shape {logits.shape}")
    k = min(k, logits.shape[1])
    topk = np.argpartition(-logits, kth=k - 1, axis=1)[:, :k]
    hits = (topk == labels[:, None]).any(axis=1)
    return float(hits.mean())


def evaluate(
    model: Module,
    dataset: SyntheticImages,
    batch_size: int = 256,
    ks: Sequence[int] = (1, 5),
) -> Dict[int, float]:
    """Top-k accuracies of ``model`` over a dataset (eval mode, no grad)."""
    was_training = model.training
    model.eval()
    logits_chunks = []
    with no_grad():
        for start in range(0, len(dataset), batch_size):
            batch = dataset.images[start : start + batch_size]
            logits_chunks.append(model(Tensor(batch)).numpy())
    logits = np.concatenate(logits_chunks)
    if was_training:
        model.train()
    return {k: topk_accuracy(logits, dataset.labels, k) for k in ks}

