"""Base class for CNN models exposing both end-to-end and local-layer APIs."""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.models.layers import LayerSpec
from repro.nn.module import Module, run_backward


class ConvNet(Module):
    """A CNN decomposed into local-learning stages plus a classifier head.

    Subclasses populate ``self.stages`` (list of stage modules), ``self.head``
    (pool+flatten+linear classifier) and ``self._specs`` (one
    :class:`LayerSpec` per stage) during construction.

    End-to-end training (the BP baseline) uses ``forward``/``backward`` over
    the whole chain; local learning trains each ``LayerSpec.module``
    independently.
    """

    def __init__(
        self,
        name: str,
        input_hw: tuple[int, int],
        num_classes: int,
        in_channels: int = 3,
    ):
        super().__init__()
        self.name = name
        self.input_hw = tuple(input_hw)
        self.num_classes = num_classes
        self.in_channels = in_channels
        self.stages: list[Module] = []
        self.head: Module | None = None
        self._specs: list[LayerSpec] = []
        self._conv_widths: list[int] = []

    # -- end-to-end path ---------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        for stage in self.stages:
            x = stage.forward(x)
        assert self.head is not None
        return self.head.forward(x)

    def backward(
        self, grad_out: np.ndarray, need_input_grad: bool = True
    ) -> np.ndarray | None:
        """End-to-end reverse pass.

        Trainers never use the gradient with respect to the model *input*;
        they pass ``need_input_grad=False`` so the first stage can skip its
        input-gradient kernels (parameter gradients are unaffected).
        """
        assert self.head is not None
        grad = self.head.backward(grad_out)
        for stage in reversed(self.stages[1:]):
            grad = stage.backward(grad)
        if not self.stages:
            return grad if need_input_grad else None
        return run_backward(self.stages[0], grad, need_input_grad)

    def forward_features(self, x: np.ndarray, upto: int | None = None) -> np.ndarray:
        """Run the stage chain only (no head), optionally stopping early.

        ``upto`` is an exclusive stage count: ``upto=k`` runs stages
        ``0..k-1``.  ``None`` runs all stages.
        """
        stop = len(self.stages) if upto is None else upto
        if not 0 <= stop <= len(self.stages):
            raise ShapeError(f"upto={upto} out of range for {len(self.stages)} stages")
        for stage in self.stages[:stop]:
            x = stage.forward(x)
        return x

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Class predictions for a batch (eval-mode semantics expected)."""
        return np.argmax(self.forward(x), axis=1)

    # -- local-learning view -------------------------------------------------
    def local_layers(self) -> list[LayerSpec]:
        """The model as a sequence of independently trainable stages."""
        return list(self._specs)

    @property
    def num_local_layers(self) -> int:
        return len(self._specs)

    @property
    def min_conv_width(self) -> int:
        return min(self._conv_widths)

    @property
    def max_conv_width(self) -> int:
        return max(self._conv_widths)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(name={self.name!r}, layers={len(self._specs)}, "
            f"params={self.num_parameters()})"
        )


def scale_width(channels: int, width_multiplier: float, minimum: int = 4) -> int:
    """Scale a channel count by a width multiplier, keeping a sane minimum."""
    return max(minimum, int(round(channels * width_multiplier)))
