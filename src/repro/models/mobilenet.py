"""MobileNet-v1 style network built from depthwise-separable blocks.

Used for the Section 2.2 motivation experiment (even mobile-tailored models
are activation-dominated during training) and as an additional workload for
NeuroFlux.  Each local-learning unit is one depthwise-separable block
(depthwise conv + BN + ReLU + pointwise conv + BN + ReLU).
"""

from __future__ import annotations

from repro.models.base import ConvNet, scale_width
from repro.models.layers import LayerSpec
from repro.nn import (
    BatchNorm2d,
    Conv2d,
    DepthwiseConv2d,
    Flatten,
    GlobalAvgPool2d,
    Linear,
    ReLU,
    Sequential,
)
from repro.utils.rng import spawn_rng

# (out_channels, stride) per depthwise-separable block, CIFAR-adapted.
MOBILENET_CONFIG: list[tuple[int, int]] = [
    (64, 1),
    (128, 2),
    (128, 1),
    (256, 2),
    (256, 1),
    (512, 2),
    (512, 1),
    (512, 1),
    (512, 1),
    (512, 1),
    (512, 1),
    (1024, 2),
    (1024, 1),
]


class MobileNet(ConvNet):
    """MobileNet-v1 with a width multiplier, adapted to small inputs."""

    def __init__(
        self,
        num_classes: int = 10,
        input_hw: tuple[int, int] = (32, 32),
        width_multiplier: float = 1.0,
        seed: int = 0,
        config: list[tuple[int, int]] | None = None,
    ):
        super().__init__("mobilenet", input_hw, num_classes)
        config = config if config is not None else MOBILENET_CONFIG
        stem_width = scale_width(32, width_multiplier)
        stem_rng = spawn_rng(seed, "mobilenet/stem")
        stem = Sequential(
            Conv2d(self.in_channels, stem_width, 3, stride=1, padding=1, bias=False, rng=stem_rng),
            BatchNorm2d(stem_width),
            ReLU(),
        )
        hw = self.input_hw
        self.stages.append(stem)
        self._specs.append(
            LayerSpec(
                index=0,
                name="stem",
                module=stem,
                in_channels=self.in_channels,
                out_channels=stem_width,
                in_hw=hw,
                out_hw=hw,
                downsamples=False,
                before_first_downsample=True,
            )
        )
        self._conv_widths.append(stem_width)
        in_ch = stem_width
        downsampled_yet = False
        for block_i, (channels, want_stride) in enumerate(config):
            width = scale_width(channels, width_multiplier)
            stride = want_stride if min(hw) >= 2 else 1
            rng = spawn_rng(seed, f"mobilenet/ds{block_i}")
            block = Sequential(
                DepthwiseConv2d(in_ch, 3, stride=stride, padding=1, bias=False, rng=rng),
                BatchNorm2d(in_ch),
                ReLU(),
                Conv2d(in_ch, width, 1, bias=False, rng=rng),
                BatchNorm2d(width),
                ReLU(),
            )
            out_hw = (
                (hw[0] + 2 - 3) // stride + 1,
                (hw[1] + 2 - 3) // stride + 1,
            )
            downsamples = stride > 1
            if downsamples:
                downsampled_yet = True
            self.stages.append(block)
            self._specs.append(
                LayerSpec(
                    index=block_i + 1,
                    name=f"ds{block_i + 1}",
                    module=block,
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
        head_rng = spawn_rng(seed, "mobilenet/head")
        self.head = Sequential(
            GlobalAvgPool2d(),
            Flatten(),
            Linear(in_ch, num_classes, rng=head_rng),
        )
