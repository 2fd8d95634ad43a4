"""Synthetic CIFAR-100-like dataset.

The environment has no CIFAR download, so we substitute a controllable
synthetic image-classification task with the same *shape*: ``num_classes``
classes of small RGB images, where each class is a smooth random
prototype pattern and samples are noisy, shifted, optionally flipped
instances of it.  Difficulty is tunable through the noise level, so the
learning curves have the gradual, non-trivial profile the time-to-
accuracy experiments need (classes overlap; top-1 accuracy climbs over
many epochs rather than jumping to 100%).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Tuple

import numpy as np

__all__ = ["SyntheticImages", "DataLoader", "make_dataset"]


def _roll(images: np.ndarray, step: int, axis: int) -> np.ndarray:
    """``np.roll(images, step, axis)`` for ``axis`` -2 or -1: the same
    values, written as two slice copies without ``np.roll``'s index set-up."""
    out = np.empty_like(images)
    if axis == -2:
        images, out = images.swapaxes(-2, -1), out.swapaxes(-2, -1)
    cut = -step % images.shape[-1]  # out[j] = images[(j + cut) % size]
    out[..., : images.shape[-1] - cut] = images[..., cut:]
    out[..., images.shape[-1] - cut :] = images[..., :cut]
    return out if axis == -1 else out.swapaxes(-2, -1)


def _smooth(images: np.ndarray) -> np.ndarray:
    """Two rounds of circular neighbor averaging over the last two axes."""
    for _ in range(2):
        images = (
            images
            + _roll(images, 1, -2)
            + _roll(images, -1, -2)
            + _roll(images, 1, -1)
            + _roll(images, -1, -1)
        ) / 5.0
    return images


def _roll_each(images: np.ndarray, shifts: np.ndarray) -> None:
    """Circularly shift ``images[i]`` by ``shifts[i] = (dy, dx)``, in place.

    The shifts are small jitter drawn from a handful of values, so
    instead of one roll per image the batch is rolled once per
    axis and distinct step, over the images that move that way.
    """
    for axis in (0, 1):
        steps = shifts[:, axis]
        for step in set(steps.tolist()) - {0}:
            moved = steps == step
            images[moved] = _roll(images[moved], step, axis - 2)


@dataclass
class SyntheticImages:
    """A materialized split: ``images`` (N, C, H, W), ``labels`` (N,)."""

    images: np.ndarray
    labels: np.ndarray

    def __len__(self) -> int:
        return self.images.shape[0]


def make_dataset(
    num_classes: int = 100,
    train_per_class: int = 20,
    test_per_class: int = 5,
    image_size: int = 8,
    channels: int = 3,
    noise: float = 1.0,
    seed: int = 0,
) -> Tuple[SyntheticImages, SyntheticImages]:
    """Generate train/test splits of the synthetic classification task.

    Each class has a smooth prototype; a sample is
    ``prototype + noise * smooth_noise`` with a random circular shift.
    ``noise`` around 1.0 gives CIFAR-like gradual learning curves for the
    small models used in the benchmarks.
    """
    shape = (channels, image_size, image_size)
    rng = np.random.default_rng(seed)
    prototypes = _smooth(rng.standard_normal((num_classes, *shape)))
    prototypes *= 2.0  # separate the classes from the noise floor

    def sample_split(per_class: int, split_rng: np.random.Generator) -> SyntheticImages:
        images = np.empty((num_classes * per_class, *shape))
        # Two draws per sample, in sample order (the generator stream is
        # part of the dataset's definition); smoothing and shifting then
        # run over one class at a time.  Not over the whole split: its
        # megabytes of fresh temporaries cost more in page faults than
        # the batching saves, while a class batch stays cache-sized.
        # A sample's two shifts are two scalar draws: the same values from
        # the same stream as one draw of two, at about half the cost.
        raw = np.empty((per_class, *shape))
        shifts = np.empty((per_class, 2), dtype=np.int64)
        normal = split_rng.standard_normal
        integers = split_rng.integers
        for cls in range(num_classes):
            for k in range(per_class):
                normal(out=raw[k])
                shifts[k] = integers(-1, 2), integers(-1, 2)
            batch = images[cls * per_class : (cls + 1) * per_class]
            batch[:] = prototypes[cls] + noise * _smooth(raw)
            _roll_each(batch, shifts)
        labels = np.repeat(np.arange(num_classes, dtype=np.int64), per_class)
        # Normalize to zero mean / unit variance like standard pipelines.
        images -= images.mean()
        images /= images.std() + 1e-12
        return SyntheticImages(images, labels)

    train = sample_split(train_per_class, np.random.default_rng(seed + 1))
    test = sample_split(test_per_class, np.random.default_rng(seed + 2))
    return train, test


class DataLoader:
    """Mini-batch iterator with shuffling and optional augmentation.

    Augmentation follows the "standard training setup" spirit of the
    paper: random horizontal flips and 1-pixel circular shifts.
    """

    def __init__(
        self,
        dataset: SyntheticImages,
        batch_size: int = 64,
        shuffle: bool = True,
        augment: bool = False,
        seed: int = 0,
        drop_last: bool = True,
    ) -> None:
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.dataset = dataset
        self.batch_size = batch_size
        self.shuffle = shuffle
        self.augment = augment
        self.drop_last = drop_last
        self._rng = np.random.default_rng(seed)

    def __len__(self) -> int:
        n = len(self.dataset)
        if self.drop_last:
            return n // self.batch_size
        return -(-n // self.batch_size)

    def state(self) -> dict:
        """Snapshot of the loader's PCG64 state (JSON-ready).

        Captured at an epoch boundary this pins the shuffle permutation
        *and* every augmentation draw of the epoch, so a restored loader
        replays the epoch's batches bit-identically.
        """
        return dict(self._rng.bit_generator.state)

    def set_state(self, state: dict) -> None:
        """Inverse of :meth:`state`."""
        self._rng.bit_generator.state = dict(state)

    def __iter__(self) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        n = len(self.dataset)
        order = self._rng.permutation(n) if self.shuffle else np.arange(n)
        stop = (n // self.batch_size) * self.batch_size if self.drop_last else n
        for start in range(0, stop, self.batch_size):
            idx = order[start : start + self.batch_size]
            images = self.dataset.images[idx]
            labels = self.dataset.labels[idx]
            if self.augment:
                images = self._augment(images)
            yield images, labels

    def _augment(self, images: np.ndarray) -> np.ndarray:
        images = images.copy()
        flips = self._rng.random(images.shape[0]) < 0.5
        images[flips] = images[flips, :, :, ::-1]
        shifts = self._rng.integers(-1, 2, size=(images.shape[0], 2))
        _roll_each(images, shifts)
        return images
