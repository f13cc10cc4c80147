"""Model registry: build any benchmark model by name."""

from __future__ import annotations

from typing import Callable

from repro.errors import ConfigError
from repro.models.base import ConvNet
from repro.models.mobilenet import MobileNet
from repro.models.resnet import ResNet
from repro.models.vgg import VGG, VGG_CONFIGS


def _vgg_builder(variant: str) -> Callable[..., ConvNet]:
    def build(**kwargs) -> ConvNet:
        return VGG(variant, **kwargs)

    return build


_BUILDERS: dict[str, Callable[..., ConvNet]] = {
    **{variant: _vgg_builder(variant) for variant in VGG_CONFIGS},
    "resnet18": lambda **kwargs: ResNet("resnet18", **kwargs),
    "mobilenet": lambda **kwargs: MobileNet(**kwargs),
}


def list_models() -> list[str]:
    """Names accepted by :func:`build_model`."""
    return sorted(_BUILDERS)


def build_model(
    name: str,
    num_classes: int = 10,
    input_hw: tuple[int, int] = (32, 32),
    width_multiplier: float = 1.0,
    seed: int = 0,
    **kwargs,
) -> ConvNet:
    """Construct a model by name with deterministic initialization.

    ``width_multiplier`` scales every channel count, which is how the test
    suite and benchmarks obtain smaller, faster variants with identical
    topology.
    """
    if name not in _BUILDERS:
        raise ConfigError(f"unknown model {name!r}; available: {list_models()}")
    return _BUILDERS[name](
        num_classes=num_classes,
        input_hw=input_hw,
        width_multiplier=width_multiplier,
        seed=seed,
        **kwargs,
    )
