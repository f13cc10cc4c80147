"""VGG-11/13/16/19 adapted to small (CIFAR-style) inputs.

Each local-learning unit is conv + BN + ReLU, with the following max-pool
folded into the same unit when the config places one there (the paper's
layer transform ``x_{n+1} = alpha P_n theta_n x_n`` includes the optional
downsample ``P_n``).  Pools that would shrink the spatial size below 1 are
skipped, so narrow test inputs (e.g. 8x8) still build.
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.models.base import ConvNet, scale_width
from repro.models.layers import conv_unit
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
        i = 0
        while i < len(config):
            in_ch, hw = self.feature_shape
            idx = len(self.stages)
            width = scale_width(int(config[i]), width_multiplier)
            # Fold a following 'M' into this unit, if the map is still poolable.
            pool = None
            if i + 1 < len(config) and config[i + 1] == "M":
                if min(hw) >= 2:
                    pool = 2
                    hw = (hw[0] // 2, hw[1] // 2)
                i += 1  # consume the 'M' marker either way
            stage = conv_unit(
                in_ch, width, 3, stride=1, padding=1, batch_norm=batch_norm,
                rng=spawn_rng(seed, f"{variant}/conv{idx}"), pool=pool,
            )
            self.add_stage(f"conv{idx + 1}", stage, width, hw)
            i += 1
        self.add_head(spawn_rng(seed, f"{variant}/head"))
