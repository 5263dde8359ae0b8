"""Tests for synthetic tasks, loaders, and federated partitioners."""

import hashlib

import numpy as np
import pytest

from repro.data import (
    ArrayDataset,
    DataLoader,
    make_caltech256_like,
    make_cifar10_like,
    pathological_partition,
    public_private_split,
)
from repro.data.synthetic import make_synthetic_task
from repro.nn import dtype_scope


class TestArrayDataset:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            ArrayDataset(np.zeros((3, 2)), np.zeros(4, dtype=int))

    def test_subset(self):
        ds = ArrayDataset(np.arange(10).reshape(10, 1), np.arange(10))
        sub = ds.subset([1, 3, 5])
        np.testing.assert_array_equal(sub.y, [1, 3, 5])

    def test_class_counts(self):
        ds = ArrayDataset(np.zeros((4, 1)), np.array([0, 1, 1, 3]))
        np.testing.assert_array_equal(ds.class_counts(5), [1, 2, 0, 1, 0])


class TestDataLoader:
    def _ds(self, n=10):
        return ArrayDataset(np.arange(n).reshape(n, 1).astype(float), np.arange(n))

    def test_covers_all_samples(self):
        loader = DataLoader(self._ds(), batch_size=3, shuffle=True, rng=np.random.default_rng(0))
        seen = np.concatenate([y for _, y in loader])
        assert sorted(seen.tolist()) == list(range(10))

    def test_drop_last(self):
        loader = DataLoader(self._ds(10), batch_size=3, drop_last=True)
        batches = list(loader)
        assert len(batches) == 3
        assert all(len(y) == 3 for _, y in batches)

    def test_len(self):
        assert len(DataLoader(self._ds(10), batch_size=3)) == 4
        assert len(DataLoader(self._ds(10), batch_size=3, drop_last=True)) == 3

    def test_shuffling_is_reproducible(self):
        d1 = DataLoader(self._ds(), batch_size=4, rng=np.random.default_rng(5))
        d2 = DataLoader(self._ds(), batch_size=4, rng=np.random.default_rng(5))
        for (x1, _), (x2, _) in zip(d1, d2):
            np.testing.assert_array_equal(x1, x2)

    def test_infinite_stream(self):
        loader = DataLoader(self._ds(4), batch_size=4)
        stream = loader.infinite()
        for _ in range(5):
            x, y = next(stream)
            assert len(y) == 4

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            DataLoader(self._ds(), batch_size=0)


class TestSyntheticTask:
    def test_cifar10_like_shapes_and_range(self):
        task = make_cifar10_like(image_size=8, train_per_class=5, test_per_class=2)
        assert task.num_classes == 10
        assert task.train.x.shape == (50, 3, 8, 8)
        assert task.test.x.shape == (20, 3, 8, 8)
        assert task.train.x.min() >= 0.0 and task.train.x.max() <= 1.0

    def test_caltech256_like_many_classes(self):
        task = make_caltech256_like(image_size=8, num_classes=16, train_per_class=3, test_per_class=1)
        assert task.num_classes == 16
        assert set(np.unique(task.train.y)) == set(range(16))

    def test_determinism(self):
        t1 = make_cifar10_like(image_size=8, train_per_class=4, test_per_class=2, seed=3)
        t2 = make_cifar10_like(image_size=8, train_per_class=4, test_per_class=2, seed=3)
        np.testing.assert_array_equal(t1.train.x, t2.train.x)

    def test_different_seeds_differ(self):
        t1 = make_cifar10_like(image_size=8, train_per_class=4, test_per_class=2, seed=3)
        t2 = make_cifar10_like(image_size=8, train_per_class=4, test_per_class=2, seed=4)
        assert not np.allclose(t1.train.x, t2.train.x)

    def test_task_is_learnable_by_linear_probe(self):
        """Nearest-prototype should beat chance by a wide margin."""
        task = make_cifar10_like(image_size=8, train_per_class=30, test_per_class=10, seed=0)
        protos = np.stack([
            task.train.x[task.train.y == c].mean(axis=0) for c in range(10)
        ]).reshape(10, -1)
        xt = task.test.x.reshape(len(task.test.x), -1)
        d = ((xt[:, None, :] - protos[None]) ** 2).sum(axis=2)
        acc = (d.argmin(axis=1) == task.test.y).mean()
        assert acc > 0.5

    def test_min_classes(self):
        with pytest.raises(ValueError):
            make_synthetic_task("t", 1, (3, 8, 8), 2, 2)


class TestPartitions:
    def _labels(self, n=600, classes=10):
        return np.arange(n) % classes

    def test_pathological_partition_majority_structure(self):
        labels = self._labels()
        shards = pathological_partition(labels, 10, rng=np.random.default_rng(0))
        for shard in shards:
            counts = np.bincount(labels[shard], minlength=10)
            top2 = np.sort(counts)[-2:].sum()
            # 80% of data concentrated in ~20% (=2) classes
            assert top2 / counts.sum() > 0.6

    def test_pathological_partition_disjoint(self):
        shards = pathological_partition(self._labels(), 10, rng=np.random.default_rng(1))
        all_idx = np.concatenate(shards)
        assert len(np.unique(all_idx)) == len(all_idx)

    def test_pathological_fraction_validation(self):
        with pytest.raises(ValueError):
            pathological_partition(self._labels(), 5, major_data_frac=0.0)

    def test_public_private_split(self):
        pub, priv = public_private_split(self._labels(), 0.1, rng=np.random.default_rng(0))
        assert len(pub) == 60
        assert len(np.intersect1d(pub, priv)) == 0
        assert len(pub) + len(priv) == 600

    def test_public_frac_validation(self):
        with pytest.raises(ValueError):
            public_private_split(self._labels(), 1.0)


# sha256 over (dtype, shape, bytes) of train x, train y, test x, test y, as
# the generator wrote them before it stopped keeping float64 class blocks.
SYNTHESIS_DIGESTS = {
    "cifar8": (
        lambda: make_cifar10_like(image_size=8, train_per_class=20, test_per_class=5, seed=0),
        "ea2c9cf0abfe6e13a8141c45543da6d9ec7dc664d84b8e4ca377c7da5240b805",
        "dbd77e622ba2794b49c153148d21f4d57275e05a7c4cf8d3c57fa51cd16b6be3",
    ),
    "jfat_dense": (
        lambda: make_cifar10_like(image_size=16, train_per_class=120, test_per_class=24, seed=0),
        "bb4ef7bae08cdf3ca7c78a13eca0aae1d80ba2b589215e5f89214c8cc368e6c0",
        "2f20e6630fdb54443af32df34cc71e84ca5ab559da01842a97d2ff8581d562fa",
    ),
    "caltech": (
        lambda: make_caltech256_like(
            image_size=12, num_classes=5, train_per_class=7, test_per_class=3, seed=3
        ),
        "499c9d1c24d2749e21d858259e65cf078e37319c4a33bab70d425588bcfe2e0d",
        "187c3fc4c1683da3a26bc5ec13d09b5351ff7110096c7b92281ba26846022bb4",
    ),
}


@pytest.mark.population
@pytest.mark.parametrize("geometry", sorted(SYNTHESIS_DIGESTS))
@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_synthesis_is_pinned_byte_for_byte(geometry, dtype):
    make, float32_digest, float64_digest = SYNTHESIS_DIGESTS[geometry]
    with dtype_scope(dtype):
        task = make()
    h = hashlib.sha256()
    for split in (task.train, task.test):
        for a in (split.x, split.y):
            h.update(str((a.dtype.str, a.shape)).encode())
            h.update(a.tobytes())
    assert h.hexdigest() == {"float32": float32_digest, "float64": float64_digest}[dtype]
