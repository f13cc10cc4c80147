"""Tests for synthetic datasets and the data loader."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import DataLoader, DatasetSpec, dataset_spec, list_datasets
from repro.errors import ConfigError, ShapeError
from repro.utils.rng import spawn_rng


class TestRegistry:
    def test_presets(self):
        assert set(list_datasets()) == {"cifar10", "cifar100", "tiny-imagenet"}

    def test_paper_geometry(self):
        # Section 6.1: Tiny ImageNet resized to 32x32, 200 classes.
        spec = dataset_spec("tiny-imagenet")
        assert spec.image_hw == (32, 32)
        assert spec.num_classes == 200
        assert spec.n_train == 100_000

    def test_unknown_raises(self):
        with pytest.raises(ConfigError):
            dataset_spec("imagenet21k")

    def test_scale(self):
        spec = dataset_spec("cifar10", scale=0.01)
        assert spec.n_train == 500
        assert spec.n_test == 100

    def test_scale_floors_at_class_count(self):
        spec = dataset_spec("cifar100", scale=1e-9)
        assert spec.n_train == 100

    def test_class_override(self):
        spec = dataset_spec("cifar10", num_classes=3)
        assert spec.num_classes == 3


class TestDatasetSpec:
    def test_sample_bytes(self):
        spec = dataset_spec("cifar10")
        assert spec.sample_bytes == 3 * 32 * 32 * 4

    def test_train_bytes(self):
        spec = dataset_spec("cifar10", scale=0.1)
        assert spec.train_bytes == 5000 * spec.sample_bytes

    def test_invalid_scale(self):
        with pytest.raises(ConfigError):
            dataset_spec("cifar10").scaled(-1)

    def test_too_few_classes(self):
        with pytest.raises(ConfigError):
            DatasetSpec("x", 1, (8, 8), 3, 10, 10, 10)


class TestSynthesis:
    @pytest.fixture(scope="class")
    def data(self):
        return dataset_spec(
            "cifar10", num_classes=4, image_hw=(12, 12), scale=0.004, seed=3
        ).materialize()

    def test_shapes_and_dtypes(self, data):
        assert data.x_train.shape[1:] == (3, 12, 12)
        assert data.x_train.dtype == np.float32
        assert data.y_train.dtype == np.int64

    def test_labels_in_range(self, data):
        for y in (data.y_train, data.y_val, data.y_test):
            assert y.min() >= 0 and y.max() < 4

    def test_standardized(self, data):
        assert abs(data.x_train.mean()) < 0.05
        assert abs(data.x_train.std() - 1.0) < 0.05

    def test_deterministic(self):
        spec = dataset_spec("cifar10", num_classes=3, image_hw=(8, 8), scale=0.001, seed=9)
        a, b = spec.materialize(), spec.materialize()
        np.testing.assert_array_equal(a.x_train, b.x_train)
        np.testing.assert_array_equal(a.y_test, b.y_test)

    def test_splits_differ(self, data):
        assert not np.array_equal(
            data.x_train[: len(data.x_val)], data.x_val
        )

    def test_classes_are_separable(self, data):
        """A nearest-class-mean classifier must beat chance comfortably --
        otherwise accuracy experiments on this data would be meaningless."""
        means = np.stack(
            [data.x_train[data.y_train == c].mean(axis=0) for c in range(4)]
        )
        flat_means = means.reshape(4, -1)
        flat_test = data.x_test.reshape(len(data.x_test), -1)
        d2 = ((flat_test[:, None, :] - flat_means[None, :, :]) ** 2).sum(axis=2)
        acc = (np.argmin(d2, axis=1) == data.y_test).mean()
        assert acc > 0.5  # chance is 0.25

    @pytest.mark.parametrize(
        "spec",
        [
            DatasetSpec("chunks-a", 3, (8, 8), 3, 150, 70, 65, noise_std=0.3, seed=5),
            DatasetSpec("chunks-b", 4, (6, 10), 1, 130, 129, 65, max_shift=0, seed=11),
        ],
        ids=lambda spec: spec.name,
    )
    def test_chunked_noise_equals_the_one_shot_draw(self, spec):
        """Noise is drawn ``_NOISE_ROWS`` rows at a time; with a chunk
        boundary inside the split (mid-split and at its last row) every
        value equals the single whole-split draw's."""
        from repro.data import datasets

        data = spec.materialize()
        protos = datasets._class_prototypes(spec)
        for split, n in (("train", spec.n_train), ("val", spec.n_val), ("test", spec.n_test)):
            rng = spawn_rng(spec.seed, spec.name, split)
            labels = rng.integers(0, spec.num_classes, size=n).astype(np.int64)
            x = protos[labels].copy()
            if spec.max_shift > 0:
                shifts = rng.integers(-spec.max_shift, spec.max_shift + 1, size=(n, 2))
                for i, (dy, dx) in enumerate(shifts):
                    x[i] = np.roll(x[i], (int(dy), int(dx)), axis=(1, 2))
            x += rng.normal(0.0, spec.noise_std, size=x.shape).astype(np.float32)
            x -= x.mean()
            x /= x.std() + 1e-8
            # A boundary inside the split, and a partial last chunk.
            assert n > datasets._NOISE_ROWS and n % datasets._NOISE_ROWS
            np.testing.assert_array_equal(getattr(data, f"x_{split}"), x)
            np.testing.assert_array_equal(getattr(data, f"y_{split}"), labels)

    def test_nbytes_positive(self, data):
        assert data.nbytes > 0


class TestDataLoader:
    def _xy(self, n=10):
        x = np.arange(n, dtype=np.float32).reshape(n, 1)
        return x, np.arange(n, dtype=np.int64)

    def test_covers_all_samples(self):
        x, y = self._xy(10)
        loader = DataLoader(x, y, batch_size=3, shuffle=False)
        seen = np.concatenate([yb for _, yb in loader])
        np.testing.assert_array_equal(np.sort(seen), y)

    def test_len(self):
        x, y = self._xy(10)
        assert len(DataLoader(x, y, 3)) == 4
        assert len(DataLoader(x, y, 3, drop_last=True)) == 3

    def test_drop_last(self):
        x, y = self._xy(10)
        loader = DataLoader(x, y, 3, shuffle=False, drop_last=True)
        batches = list(loader)
        assert all(len(xb) == 3 for xb, _ in batches)
        assert len(batches) == 3

    def test_shuffle_changes_order_but_not_content(self):
        x, y = self._xy(32)
        loader = DataLoader(x, y, 8, shuffle=True, rng=spawn_rng(0, "dl"))
        e1 = np.concatenate([yb for _, yb in loader])
        e2 = np.concatenate([yb for _, yb in loader])
        assert not np.array_equal(e1, e2)  # epochs reshuffle
        np.testing.assert_array_equal(np.sort(e1), np.sort(e2))

    def test_labels_track_inputs(self):
        x, y = self._xy(20)
        loader = DataLoader(x, y, 7, shuffle=True, rng=spawn_rng(1, "dl"))
        for xb, yb in loader:
            np.testing.assert_array_equal(xb[:, 0].astype(np.int64), yb)

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ShapeError):
            DataLoader(np.zeros((3, 1)), np.zeros(4), 2)

    def test_bad_batch_size(self):
        x, y = self._xy(4)
        with pytest.raises(ConfigError):
            DataLoader(x, y, 0)

    @settings(deadline=None, max_examples=20)
    @given(n=st.integers(1, 50), batch=st.integers(1, 17))
    def test_every_sample_once_property(self, n, batch):
        x = np.arange(n, dtype=np.float32).reshape(n, 1)
        y = np.arange(n, dtype=np.int64)
        loader = DataLoader(x, y, batch, shuffle=True, rng=spawn_rng(n, "p"))
        seen = np.concatenate([yb for _, yb in loader]) if n else np.array([])
        np.testing.assert_array_equal(np.sort(seen), y)
