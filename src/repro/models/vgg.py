"""VGG-11/13/16/19 adapted to small (CIFAR-style) inputs.

Each local-learning unit is conv + BN + ReLU, with the following max-pool
folded into the same unit when the config places one there (the paper's
layer transform ``x_{n+1} = alpha P_n theta_n x_n`` includes the optional
downsample ``P_n``).  Pools that would shrink the spatial size below 1 are
skipped, so narrow test inputs (e.g. 8x8) still build.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.models.base import ConvNet, scale_width
from repro.models.layers import LayerSpec, conv_unit
from repro.nn import (
    Flatten,
    GlobalAvgPool2d,
    Linear,
    Sequential,
)
from repro.utils.rng import spawn_rng

VGG_CONFIGS: dict[str, list] = {
    "vgg11": [64, "M", 128, "M", 256, 256, "M", 512, 512, "M", 512, 512, "M"],
    "vgg13": [64, 64, "M", 128, 128, "M", 256, 256, "M", 512, 512, "M", 512, 512, "M"],
    "vgg16": [
        64, 64, "M", 128, 128, "M", 256, 256, 256, "M",
        512, 512, 512, "M", 512, 512, 512, "M",
    ],
    "vgg19": [
        64, 64, "M", 128, 128, "M", 256, 256, 256, 256, "M",
        512, 512, 512, 512, "M", 512, 512, 512, 512, "M",
    ],
}


class VGG(ConvNet):
    """VGG variant with a global-average-pool classifier head."""

    def __init__(
        self,
        variant: str,
        num_classes: int = 10,
        input_hw: tuple[int, int] = (32, 32),
        width_multiplier: float = 1.0,
        batch_norm: bool = True,
        seed: int = 0,
    ):
        if variant not in VGG_CONFIGS:
            raise ConfigError(f"unknown VGG variant {variant!r}")
        super().__init__(variant, input_hw, num_classes)
        config = VGG_CONFIGS[variant]
        rng_root = seed
        in_ch = self.in_channels
        hw = self.input_hw
        layer_idx = 0
        downsampled_yet = False
        i = 0
        while i < len(config):
            width = scale_width(int(config[i]), width_multiplier)
            rng = spawn_rng(rng_root, f"{variant}/conv{layer_idx}")
            pool = None
            out_hw = hw
            downsamples = False
            # Fold a following 'M' into this unit, if the map is still poolable.
            if i + 1 < len(config) and config[i + 1] == "M":
                if min(hw) >= 2:
                    pool = 2
                    out_hw = (hw[0] // 2, hw[1] // 2)
                    downsamples = True
                i += 1  # consume the 'M' marker either way
            stage = conv_unit(
                in_ch, width, 3, stride=1, padding=1,
                batch_norm=batch_norm, rng=rng, pool=pool,
            )
            if downsamples:
                downsampled_yet = True
            self.stages.append(stage)
            self._specs.append(
                LayerSpec(
                    index=layer_idx,
                    name=f"conv{layer_idx + 1}",
                    module=stage,
                    in_channels=in_ch,
                    out_channels=width,
                    in_hw=hw,
                    out_hw=out_hw,
                    downsamples=downsamples,
                    before_first_downsample=not downsampled_yet,
                )
            )
            self._conv_widths.append(width)
            in_ch = width
            hw = out_hw
            layer_idx += 1
            i += 1
        head_rng = spawn_rng(rng_root, f"{variant}/head")
        self.head = Sequential(
            GlobalAvgPool2d(),
            Flatten(),
            Linear(in_ch, num_classes, rng=head_rng),
        )
