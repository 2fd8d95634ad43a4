"""Model zoo: VGG-style CNNs (including the paper's VGG-19), MLPs, logreg.

The paper trains VGG-19 on CIFAR-100.  The full VGG-19 configuration is
available (for parity and for anyone with patience), but the benchmarks
default to scaled-down variants that converge in seconds on CPU while
exercising the identical code path: conv stacks + BN + ReLU + pooling +
classifier, gradients flattened into one collective message.
"""

from __future__ import annotations

from typing import List, Sequence, Union

import numpy as np

from .layers import (
    BatchNorm2d,
    Conv2d,
    Dropout,
    Flatten,
    Linear,
    MaxPool2d,
    Module,
    ReLU,
    Sequential,
)
from .tensor import Tensor

__all__ = ["VGG_CONFIGS", "make_vgg", "MLP", "LogisticRegression"]

# Standard VGG configurations ("M" = 2x2 max-pool).
VGG_CONFIGS = {
    "vgg11": [64, "M", 128, "M", 256, 256, "M", 512, 512, "M", 512, 512, "M"],
    "vgg16": [64, 64, "M", 128, 128, "M", 256, 256, 256, "M",
              512, 512, 512, "M", 512, 512, 512, "M"],
    "vgg19": [64, 64, "M", 128, 128, "M", 256, 256, 256, 256, "M",
              512, 512, 512, 512, "M", 512, 512, 512, 512, "M"],
    # Scaled-down variants for CPU-speed experiments: same topology
    # pattern, narrower channels, fewer stages.
    "vgg-micro": [8, "M", 16, "M"],
    "vgg-mini": [16, 16, "M", 32, 32, "M"],
}


def make_vgg(
    config: Union[str, Sequence],
    num_classes: int = 100,
    in_channels: int = 3,
    image_size: int = 32,
    batch_norm: bool = True,
    classifier_width: int = 0,
    dropout: float = 0.0,
    seed: int = 0,
) -> Sequential:
    """Build a VGG-style network.

    Args:
        config: a name from :data:`VGG_CONFIGS` or an explicit layer list.
        num_classes: classifier output width (100 for CIFAR-100).
        in_channels: input channels (3 for RGB).
        image_size: square input resolution; must survive the pools.
        batch_norm: insert BatchNorm2d after each conv (VGG-BN variant).
        classifier_width: hidden width of the classifier head (0 = direct
            linear readout, the common CIFAR adaptation).
        dropout: classifier dropout probability.
        seed: weight init seed.
    """
    layers_cfg = VGG_CONFIGS[config] if isinstance(config, str) else list(config)
    rng = np.random.default_rng(seed)
    layers: List[Module] = []
    channels = in_channels
    resolution = image_size
    for item in layers_cfg:
        if item == "M":
            if resolution % 2:
                raise ValueError(f"cannot pool odd resolution {resolution}")
            layers.append(MaxPool2d(2))
            resolution //= 2
        else:
            layers.append(Conv2d(channels, int(item), kernel_size=3, rng=rng, padding=1))
            if batch_norm:
                layers.append(BatchNorm2d(int(item)))
            layers.append(ReLU())
            channels = int(item)
    layers.append(Flatten())
    flat = channels * resolution * resolution
    if classifier_width > 0:
        layers.append(Linear(flat, classifier_width, rng))
        layers.append(ReLU())
        if dropout > 0:
            layers.append(Dropout(dropout, seed=seed + 1))
        layers.append(Linear(classifier_width, num_classes, rng))
    else:
        layers.append(Linear(flat, num_classes, rng))
    return Sequential(*layers)


class MLP(Module):
    """Multi-layer perceptron on flat features."""

    def __init__(
        self,
        in_features: int,
        hidden: Sequence[int],
        num_classes: int,
        seed: int = 0,
    ):
        super().__init__()
        rng = np.random.default_rng(seed)
        dims = [in_features, *hidden, num_classes]
        self.blocks: List[Module] = []
        for i in range(len(dims) - 1):
            self.blocks.append(Linear(dims[i], dims[i + 1], rng))
            if i < len(dims) - 2:
                self.blocks.append(ReLU())

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim > 2:
            x = x.reshape(x.shape[0], -1)
        for block in self.blocks:
            x = block(x)
        return x


class LogisticRegression(Module):
    """Linear classifier — the convex sanity-check model."""

    def __init__(self, in_features: int, num_classes: int, seed: int = 0):
        super().__init__()
        self.linear = Linear(in_features, num_classes, np.random.default_rng(seed))

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim > 2:
            x = x.reshape(x.shape[0], -1)
        return self.linear(x)

