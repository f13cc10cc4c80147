"""Synthetic image-classification datasets.

The paper evaluates on CIFAR-10, CIFAR-100 and Tiny ImageNet (resized to
32x32).  This offline reproduction substitutes seeded synthetic datasets
with identical tensor geometry: each class is a smooth random spatial
pattern (a small sum of low-frequency 2-D cosines per channel); samples are
noisy, randomly-shifted instances of their class pattern.  Random shifts
make the task benefit from convolutional structure while staying learnable
in a few epochs -- accuracy curves (Figures 10 and 12) are therefore real
training phenomena, not mocks.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.errors import ConfigError
from repro.utils.rng import spawn_rng


@dataclass(frozen=True)
class DatasetSpec:
    """Geometry and size of a classification dataset.

    The simulation benchmarks (e.g. Figure 11) only need this descriptor;
    :meth:`materialize` builds actual arrays for real-training experiments.
    """

    name: str
    num_classes: int
    image_hw: tuple[int, int]
    channels: int
    n_train: int
    n_val: int
    n_test: int
    noise_std: float = 0.6
    max_shift: int = 2
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_classes < 2:
            raise ConfigError("need at least two classes")
        if min(self.n_train, self.n_val, self.n_test) < 1:
            raise ConfigError("all splits must be non-empty")

    @property
    def sample_shape(self) -> tuple[int, int, int]:
        return (self.channels, *self.image_hw)

    @property
    def sample_bytes(self) -> int:
        return self.channels * self.image_hw[0] * self.image_hw[1] * 4

    @property
    def train_bytes(self) -> int:
        """Bytes of the training split (the paper's 'original dataset' size
        for the Section 6.4 cache-overhead ratio)."""
        return self.n_train * self.sample_bytes

    def scaled(self, scale: float) -> "DatasetSpec":
        """Shrink every split by ``scale`` (min one sample per class)."""
        if scale <= 0:
            raise ConfigError("scale must be positive")
        floor = self.num_classes
        return replace(
            self,
            n_train=max(floor, int(self.n_train * scale)),
            n_val=max(floor, int(self.n_val * scale)),
            n_test=max(floor, int(self.n_test * scale)),
        )

    def materialize(self) -> "SyntheticImageDataset":
        return SyntheticImageDataset(self)


def _class_prototypes(spec: DatasetSpec) -> np.ndarray:
    """One smooth random pattern per (class, channel)."""
    h, w = spec.image_hw
    yy, xx = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    protos = np.zeros((spec.num_classes, spec.channels, h, w), dtype=np.float32)
    rng = spawn_rng(spec.seed, spec.name, "prototypes")
    n_waves = 4
    for c in range(spec.num_classes):
        for ch in range(spec.channels):
            pattern = np.zeros((h, w), dtype=np.float64)
            for _ in range(n_waves):
                fy = rng.integers(1, max(2, h // 4) + 1)
                fx = rng.integers(1, max(2, w // 4) + 1)
                phase = rng.uniform(0, 2 * np.pi)
                amp = rng.uniform(0.5, 1.0)
                pattern += amp * np.cos(2 * np.pi * (fy * yy / h + fx * xx / w) + phase)
            pattern /= np.abs(pattern).max() + 1e-8
            protos[c, ch] = pattern.astype(np.float32)
    return protos


#: Rows of noise drawn at a time, so the float64 draw and its float32
#: copy stay ~2 MiB at 3x32x32 however large the split is.
_NOISE_ROWS = 64


def _synthesize_split(
    spec: DatasetSpec, protos: np.ndarray, n: int, split: str
) -> tuple[np.ndarray, np.ndarray]:
    rng = spawn_rng(spec.seed, spec.name, split)
    labels = rng.integers(0, spec.num_classes, size=n).astype(np.int64)
    x = protos[labels].copy()
    if spec.max_shift > 0:
        shifts = rng.integers(-spec.max_shift, spec.max_shift + 1, size=(n, 2))
        for i in range(n):
            dy, dx = shifts[i]
            if dy or dx:
                x[i] = np.roll(x[i], (int(dy), int(dx)), axis=(1, 2))
    # A ``Generator.normal`` stream is position-exact: the chunked draws
    # concatenate to the one whole-split draw, value for value.
    for start in range(0, n, _NOISE_ROWS):
        rows = x[start : start + _NOISE_ROWS]
        rows += rng.normal(0.0, spec.noise_std, size=rows.shape).astype(np.float32)
    # Per-dataset standardization (what torchvision transforms would do).
    x -= x.mean()
    x /= x.std() + 1e-8
    return np.ascontiguousarray(x, dtype=np.float32), labels


class SyntheticImageDataset:
    """Materialized train/val/test arrays for a :class:`DatasetSpec`."""

    def __init__(self, spec: DatasetSpec):
        self.spec = spec
        protos = _class_prototypes(spec)
        self.x_train, self.y_train = _synthesize_split(spec, protos, spec.n_train, "train")
        self.x_val, self.y_val = _synthesize_split(spec, protos, spec.n_val, "val")
        self.x_test, self.y_test = _synthesize_split(spec, protos, spec.n_test, "test")

    @property
    def num_classes(self) -> int:
        return self.spec.num_classes

    @property
    def image_hw(self) -> tuple[int, int]:
        return self.spec.image_hw

    @property
    def nbytes(self) -> int:
        return int(
            self.x_train.nbytes
            + self.x_val.nbytes
            + self.x_test.nbytes
            + self.y_train.nbytes
            + self.y_val.nbytes
            + self.y_test.nbytes
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SyntheticImageDataset({self.spec.name!r}, "
            f"train={self.spec.n_train}, val={self.spec.n_val}, "
            f"test={self.spec.n_test})"
        )
