"""Local-layer view of a CNN.

NeuroFlux (and classic local learning) treat a CNN as a sequence of
trainable *layers* -- in the paper's notation, layer ``n`` computes
``x_{n+1} = alpha P_n theta_n x_n`` (conv + nonlinearity + optional
downsample).  ``LayerSpec`` records one such stage together with the
geometry the Profiler, Partitioner and AAN rule need.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn.conv import Conv2d
from repro.nn.module import Module, Sequential
from repro.nn.normalization import BatchNorm2d
from repro.nn.activations import ReLU
from repro.nn.pooling import MaxPool2d


def conv_unit(
    in_channels: int,
    out_channels: int,
    kernel_size: int = 3,
    stride: int = 1,
    padding: int = 1,
    *,
    batch_norm: bool = True,
    rng: np.random.Generator | None = None,
    pool: int | None = None,
) -> Sequential:
    """One conv(+BN)+ReLU(+max-pool) local-learning unit, seed-stable.

    The shared builder behind the model zoo blocks.  With batch norm the
    conv carries no bias (BN's shift replaces it).  Parameters sit at
    ``layers.0.*`` in every configuration.
    """
    parts: list[Module] = [
        Conv2d(
            in_channels, out_channels, kernel_size, stride=stride,
            padding=padding, bias=not batch_norm, rng=rng,
        )
    ]
    if batch_norm:
        parts.append(BatchNorm2d(out_channels))
    parts.append(ReLU())
    if pool is not None:
        parts.append(MaxPool2d(pool))
    return Sequential(*parts)


@dataclass
class LayerSpec:
    """One local-learning unit of a CNN.

    Attributes:
        index: zero-based position within the model's layer sequence.
        name: human-readable stage name (e.g. ``"conv3"`` or ``"block2.1"``).
        module: the trainable stage (supports forward/backward in isolation).
        in_channels / out_channels: feature-map widths at the boundaries.
        in_hw / out_hw: spatial sizes at the boundaries.
        downsamples: whether the stage reduces the spatial size.
        before_first_downsample: True while no downsampling has happened up
            to *and including* this stage; drives the AAN filter rule.
    """

    index: int
    name: str
    module: Module
    in_channels: int
    out_channels: int
    in_hw: tuple[int, int]
    out_hw: tuple[int, int]
    downsamples: bool
    before_first_downsample: bool

    @property
    def output_elements_per_sample(self) -> int:
        """Number of scalars in one sample's output activation."""
        return self.out_channels * self.out_hw[0] * self.out_hw[1]

    def num_parameters(self) -> int:
        return self.module.num_parameters()
