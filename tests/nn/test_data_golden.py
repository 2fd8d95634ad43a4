"""Pinned bytes of the synthetic dataset and the augmenting loader.

The digests below were generated at the commit *before* ``make_dataset``
smoothed a class at a time and ``DataLoader._augment`` rolled a shift
group at a time, so they pin the per-sample implementations' output:
every image byte, label, dtype and shape, and every batch a seeded
loader yields.  The per-sample loops themselves live on here as the
slow, obvious references the batched code is compared against.  The
``cluster-job`` row was added, at its parent commit, before each
sample's shift became two scalar draws instead of one draw of two.
"""

import hashlib

import numpy as np
import pytest

from repro.nn.data import DataLoader, SyntheticImages, _roll_each, make_dataset

DDP_DUMBBELL = dict(
    num_classes=100, train_per_class=13, test_per_class=4, image_size=16, seed=7
)
#: One job of a ``repro-cluster`` preset (``ClusterDriver._build_job``).
CLUSTER_JOB = dict(
    num_classes=8, train_per_class=16, test_per_class=8, image_size=8, noise=1.0, seed=7
)
ONE_CHANNEL_ODD = dict(
    num_classes=10, train_per_class=3, test_per_class=2, image_size=5,
    channels=1, noise=0.3, seed=2,
)


def _digest(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(f"{a.dtype}{a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _split_digests(train: SyntheticImages, test: SyntheticImages) -> tuple:
    return (
        _digest(train.images, train.labels),
        _digest(test.images, test.labels),
    )


# -- the per-sample references (the implementation up to PR 17) ---------------


def _reference_smooth_noise(rng, channels, size):
    img = rng.standard_normal((channels, size, size))
    for _ in range(2):
        img = (
            img
            + np.roll(img, 1, axis=1)
            + np.roll(img, -1, axis=1)
            + np.roll(img, 1, axis=2)
            + np.roll(img, -1, axis=2)
        ) / 5.0
    return img


def _reference_make_dataset(
    num_classes=100, train_per_class=20, test_per_class=5, image_size=8,
    channels=3, noise=1.0, seed=0,
):
    rng = np.random.default_rng(seed)
    prototypes = np.stack(
        [_reference_smooth_noise(rng, channels, image_size) for _ in range(num_classes)]
    )
    prototypes *= 2.0

    def sample_split(per_class, split_rng):
        images = np.empty((num_classes * per_class, channels, image_size, image_size))
        labels = np.empty(num_classes * per_class, dtype=np.int64)
        for cls in range(num_classes):
            for k in range(per_class):
                img = prototypes[cls] + noise * _reference_smooth_noise(
                    split_rng, channels, image_size
                )
                shift = split_rng.integers(-1, 2, size=2)
                img = np.roll(img, tuple(shift), axis=(1, 2))
                images[cls * per_class + k] = img
                labels[cls * per_class + k] = cls
        images -= images.mean()
        images /= images.std() + 1e-12
        return SyntheticImages(images, labels)

    return (
        sample_split(train_per_class, np.random.default_rng(seed + 1)),
        sample_split(test_per_class, np.random.default_rng(seed + 2)),
    )


def _reference_augment(rng, images):
    images = images.copy()
    flips = rng.random(images.shape[0]) < 0.5
    images[flips] = images[flips, :, :, ::-1]
    shifts = rng.integers(-1, 2, size=(images.shape[0], 2))
    for i, (dy, dx) in enumerate(shifts):
        if dy or dx:
            images[i] = np.roll(images[i], (dy, dx), axis=(1, 2))
    return images


@pytest.fixture(scope="module")
def ddp_splits():
    return make_dataset(**DDP_DUMBBELL)


class TestMakeDatasetGolden:
    @pytest.mark.parametrize(
        "kwargs,expected",
        [
            (
                {},
                (
                    "dbd34d934e4fae9b905a2a028135ccaed7a027aa3f17e53b8c2ff98b8b5f2480",
                    "1ddccf848e20124163936b3c96eb588b44c83f3e5a03884782a2741d8e112f42",
                ),
            ),
            (
                DDP_DUMBBELL,
                (
                    "3a647a008e8d10816c7c817a641ef8651ae304992a0f69d214c7c57ce4a6c7ac",
                    "83ad9aff40bb6a878a7f4acc7d17c1c3ba4e3c157c9c1cb4d28242afe43149f3",
                ),
            ),
            (
                CLUSTER_JOB,
                (
                    "f81dfead8fe472659e98afb52f7557c88edb53b0c6fdbab08a7b56349ac997c6",
                    "8fa61f41b27900894e7e9fa90cdbcd63aeb981f721ac835531e1ef1ce08b70b8",
                ),
            ),
            (
                ONE_CHANNEL_ODD,
                (
                    "ac928bdb4a0f0a9e2e2238c1616024498817f13e111c69d789fe799bff804b62",
                    "6d943488f1f7e45d3bcd5d8ce79551cdfa304f209aeb1482daf6fe67cda3e6e6",
                ),
            ),
        ],
        ids=["defaults", "ddp-dumbbell", "cluster-job", "one-channel-odd"],
    )
    def test_bytes_dtype_shape(self, kwargs, expected):
        assert _split_digests(*make_dataset(**kwargs)) == expected

    def test_dtypes_and_shapes(self, ddp_splits):
        train, test = ddp_splits
        assert train.images.dtype == np.float64 and train.labels.dtype == np.int64
        assert train.images.shape == (1300, 3, 16, 16) and train.labels.shape == (1300,)
        assert test.images.shape == (400, 3, 16, 16) and test.labels.shape == (400,)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(num_classes=8, train_per_class=16, test_per_class=8, image_size=8, seed=11),
            dict(num_classes=3, train_per_class=1, test_per_class=1, image_size=1, seed=5),
            dict(num_classes=4, train_per_class=5, test_per_class=2, image_size=2,
                 channels=2, noise=2.5, seed=9),
            dict(num_classes=5, train_per_class=7, test_per_class=3, image_size=7,
                 channels=4, noise=0.0, seed=1),
        ],
        ids=["cluster-job", "one-pixel", "two-pixel", "odd-noiseless"],
    )
    def test_matches_per_sample_reference(self, kwargs):
        got = make_dataset(**kwargs)
        want = _reference_make_dataset(**kwargs)
        for g, w in zip(got, want):
            assert g.images.tobytes() == w.images.tobytes()
            assert g.labels.tobytes() == w.labels.tobytes()
            assert g.images.flags.c_contiguous and g.images.flags.writeable


class TestAugmentGolden:
    def test_fifty_epochs_of_batches(self, ddp_splits):
        train, _ = ddp_splits
        loader = DataLoader(train, batch_size=32, augment=True, seed=3)
        h = hashlib.sha256()
        batches = 0
        for _ in range(50):
            for images, labels in loader:
                h.update(_digest(images, labels).encode())
                batches += 1
        assert batches == 50 * 40
        assert h.hexdigest() == "eb11440aecad18c866e442b0d8eb0cacdac6f33d90b91c0a037b6558737cdb7d"

    @pytest.mark.parametrize("kwargs", [DDP_DUMBBELL, ONE_CHANNEL_ODD], ids=["rgb16", "gray5"])
    def test_matches_per_sample_reference(self, kwargs):
        train, _ = make_dataset(**kwargs)
        loader = DataLoader(train, batch_size=7, augment=True, seed=5)
        rng = np.random.default_rng(5)
        for _ in range(3):
            order = rng.permutation(len(train))
            for b, (images, labels) in enumerate(loader):
                idx = order[b * 7 : (b + 1) * 7]
                want = _reference_augment(rng, train.images[idx])
                assert images.tobytes() == want.tobytes()
                assert np.array_equal(labels, train.labels[idx])

    def test_roll_each_takes_any_integer_shift(self):
        rng = np.random.default_rng(4)
        images = rng.standard_normal((9, 2, 5, 6))
        shifts = rng.integers(-7, 8, size=(9, 2))
        want = np.stack(
            [np.roll(img, tuple(shift), axis=(1, 2)) for img, shift in zip(images, shifts)]
        )
        _roll_each(images, shifts)
        assert images.tobytes() == want.tobytes()

    def test_augment_leaves_the_dataset_untouched(self):
        train, _ = make_dataset(**ONE_CHANNEL_ODD)
        before = train.images.copy()
        for _ in DataLoader(train, batch_size=4, augment=True, seed=1):
            pass
        assert np.array_equal(train.images, before)
