"""Auxiliary networks for local learning and the AAN filter rule.

Classic local learning [Belilovsky et al. 2019] attaches the same CNN
classifier (conv + pooling + linear, 256 filters) to every layer.  The
paper's first contribution, Adaptive Auxiliary Networks (AAN-LL, Section
3), varies the filter count per layer:

* layers *before the first downsampling operation* get ``min_width // 2``
  filters (e.g. 32 for VGG, whose narrowest conv is 64) -- this shrinks the
  dominant early-layer activations;
* all later layers get ``max_width // 2`` filters (e.g. 256 for VGG) --
  wide enough to preserve accuracy.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.models.base import ConvNet
from repro.models.layers import LayerSpec
from repro.nn import AdaptiveAvgPool2d, Conv2d, Flatten, Linear, ReLU, Sequential
from repro.utils.rng import spawn_rng

#: Filter count used by classic local learning's auxiliary networks.
CLASSIC_AUX_FILTERS = 256
#: The filter rules :func:`aux_filter_counts` accepts.
AUX_RULES = ("aan", "classic", "uniform-small")
#: Side of the pooled map a head classifies (capped by its input's size).
AUX_POOL_TO = 2


class AuxiliaryHead(Sequential):
    """CNN classifier head: conv -> ReLU -> adaptive avg-pool -> linear.

    Implements the paper's Equation 2, ``A_n x_{n+1} = gamma_n F_n beta_n
    x_{n+1}``: a convolution ``beta_n`` with ``num_filters`` filters, a
    downsampling ``F_n`` (adaptive average pooling) and a linear prediction
    layer ``gamma_n``.
    """

    def __init__(
        self,
        in_channels: int,
        num_filters: int,
        num_classes: int,
        in_hw: tuple[int, int],
        pool_to: int = AUX_POOL_TO,
        kernel_size: int = 1,
        rng: np.random.Generator | None = None,
    ):
        if num_filters < 1:
            raise ConfigError("num_filters must be >= 1")
        pool = min(pool_to, min(in_hw))
        rng = rng if rng is not None else np.random.default_rng(0)
        # 1x1 convolutions follow Belilovsky et al.'s auxiliary design
        # (spatial reduction without a large receptive-field cost); the
        # kernel size is configurable for ablations.
        padding = kernel_size // 2
        super().__init__(
            Conv2d(in_channels, num_filters, kernel_size, stride=1, padding=padding, rng=rng),
            ReLU(),
            AdaptiveAvgPool2d(pool),
            Flatten(),
            Linear(num_filters * pool * pool, num_classes, rng=rng),
        )
        self.in_channels = in_channels
        self.num_filters = num_filters
        self.num_classes = num_classes
        self.pool_to = pool
        self.kernel_size = kernel_size


def aan_filter_count(spec: LayerSpec, min_width: int, max_width: int) -> int:
    """The AAN-LL rule (Section 3, Opportunity 1) for one layer."""
    if spec.before_first_downsample:
        return max(min_width // 2, 2)
    return max(max_width // 2, 2)


def aux_filter_counts(
    model: ConvNet, rule: str = "aan", classic_filters: int = CLASSIC_AUX_FILTERS
) -> list[int]:
    """Per-layer auxiliary filter counts under the given rule.

    ``rule`` is ``"aan"`` (adaptive, the paper's contribution), ``"classic"``
    (fixed ``classic_filters``), or ``"uniform-small"`` (the strawman the
    paper rejects: uniformly halving every head's filters, which saves
    memory but costs accuracy).
    """
    specs = model.local_layers()
    min_w, max_w = model.min_conv_width, model.max_conv_width
    if rule == "aan":
        return [aan_filter_count(s, min_w, max_w) for s in specs]
    if rule == "classic":
        return [classic_filters for _ in specs]
    if rule == "uniform-small":
        return [max(min_w // 2, 2) for _ in specs]
    raise ConfigError(f"unknown aux rule {rule!r}; available: {', '.join(AUX_RULES)}")


def build_aux_heads(
    model: ConvNet,
    rule: str = "aan",
    classic_filters: int = CLASSIC_AUX_FILTERS,
    seed: int = 0,
    kernel_size: int | None = None,
) -> list[AuxiliaryHead]:
    """One auxiliary head per local layer (every layer is an exit point).

    ``kernel_size=None`` selects the rule's default: classic LL uses 3x3
    aux convolutions (Belilovsky et al.'s CNN auxiliary, whose large
    early-layer activations are exactly what the paper criticises), while
    the adaptive rules use 1x1 convolutions (NeuroFlux's streamlined
    heads).  The paper does not pin down the kernel size, so this split is
    our reading of it: a 3x3 classic head carries the large early-layer
    activations the paper measures for classic LL, while a 1x1 AAN head
    leaves the adaptive heads' cost to their filter count.
    """
    if kernel_size is None:
        kernel_size = 3 if rule == "classic" else 1
    counts = aux_filter_counts(model, rule=rule, classic_filters=classic_filters)
    heads = []
    for spec, filters in zip(model.local_layers(), counts):
        rng = spawn_rng(seed, f"aux/{model.name}/{spec.index}/{rule}")
        heads.append(
            AuxiliaryHead(
                in_channels=spec.out_channels,
                num_filters=filters,
                num_classes=model.num_classes,
                in_hw=spec.out_hw,
                kernel_size=kernel_size,
                rng=rng,
            )
        )
    return heads
