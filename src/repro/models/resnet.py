"""ResNet-18 (CIFAR-style stem) with basic residual blocks.

Each local-learning unit is either the stem (conv+BN+ReLU) or one
``BasicBlock``.  ``BasicBlock`` implements its own backward so the skip
connection's gradient routing stays inside the unit -- local learning can
then treat the block as an opaque trainable stage.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.models.base import ConvNet, scale_width
from repro.models.layers import conv_unit
from repro.nn import BatchNorm2d, Conv2d, Identity, ReLU, Sequential
from repro.nn.module import Module, run_backward
from repro.utils.rng import spawn_rng


class BasicBlock(Module):
    """Two 3x3 convs with BN and a (possibly projected) skip connection."""

    supports_no_input_grad = True

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        stride: int = 1,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.stride = stride
        self.conv1 = Conv2d(in_channels, out_channels, 3, stride=stride, padding=1, bias=False, rng=rng)
        self.bn1 = BatchNorm2d(out_channels)
        self.relu1 = ReLU()
        self.conv2 = Conv2d(out_channels, out_channels, 3, stride=1, padding=1, bias=False, rng=rng)
        self.bn2 = BatchNorm2d(out_channels)
        if stride != 1 or in_channels != out_channels:
            self.shortcut: Module = Sequential(
                Conv2d(in_channels, out_channels, 1, stride=stride, bias=False, rng=rng),
                BatchNorm2d(out_channels),
            )
        else:
            self.shortcut = Identity()
        self.relu_out = ReLU()

    def forward(self, x: np.ndarray) -> np.ndarray:
        main = self.conv1.forward(x)
        main = self.bn1.forward(main)
        main = self.relu1.forward(main)
        main = self.conv2.forward(main)
        main = self.bn2.forward(main)
        short = self.shortcut.forward(x)
        if main.shape != short.shape:
            raise ShapeError(
                f"residual shape mismatch: main {main.shape} vs shortcut {short.shape}"
            )
        return self.relu_out.forward(main + short)

    def backward(
        self, grad_out: np.ndarray, need_input_grad: bool = True
    ) -> np.ndarray | None:
        grad = self.relu_out.backward(grad_out)
        dmain = self.bn2.backward(grad)
        dmain = self.conv2.backward(dmain)
        dmain = self.relu1.backward(dmain)
        dmain = self.bn1.backward(dmain)
        dmain = run_backward(self.conv1, dmain, need_input_grad)
        dshort = run_backward(self.shortcut, grad, need_input_grad)
        if not need_input_grad:
            return None
        return dmain + dshort

    def output_hw(self, in_hw: tuple[int, int]) -> tuple[int, int]:
        return self.conv1.output_hw(in_hw)

    def forward_flops(self, in_shape: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
        """FLOPs visitor hook used by :mod:`repro.flops.count`."""
        from repro.flops.count import module_forward_flops

        total = 0
        shape = in_shape
        for mod in (self.conv1, self.bn1, self.relu1, self.conv2, self.bn2):
            f, shape = module_forward_flops(mod, shape)
            total += f
        f_short, short_shape = module_forward_flops(self.shortcut, in_shape)
        total += f_short
        # Elementwise residual add + output ReLU.
        total += 2 * int(np.prod(shape))
        return total, shape

    def iter_memory_ops(self, in_shape: tuple[int, ...]):
        """Memory visitor hook used by :mod:`repro.memory.estimator`."""
        from repro.flops.count import module_forward_flops
        from repro.memory.estimator import iter_atomic_ops

        shape = in_shape
        for mod in (self.conv1, self.bn1, self.relu1, self.conv2, self.bn2):
            _, out_shape = module_forward_flops(mod, shape)
            yield mod, shape, out_shape
            shape = out_shape
        yield from iter_atomic_ops(self.shortcut, in_shape)
        yield self.relu_out, shape, shape


class ResNet(ConvNet):
    """ResNet-18 for small inputs: 3x3 stem, four 2-block stages."""

    def __init__(
        self,
        variant: str = "resnet18",
        num_classes: int = 10,
        input_hw: tuple[int, int] = (32, 32),
        width_multiplier: float = 1.0,
        seed: int = 0,
        blocks_per_stage: tuple[int, ...] = (2, 2, 2, 2),
    ):
        super().__init__(variant, input_hw, num_classes)
        widths = [scale_width(c, width_multiplier) for c in (64, 128, 256, 512)]
        stem = conv_unit(
            self.in_channels, widths[0], rng=spawn_rng(seed, f"{variant}/stem")
        )
        self.add_stage("stem", stem, widths[0], self.input_hw)
        for stage_i, (width, n_blocks) in enumerate(zip(widths, blocks_per_stage)):
            for block_i in range(n_blocks):
                in_ch, hw = self.feature_shape
                # First block of stages 2-4 downsamples (stride 2); keep
                # stride 1 if the map is already 1x1 (tiny test inputs).
                want_stride = 2 if (stage_i > 0 and block_i == 0) else 1
                stride = want_stride if min(hw) >= 2 else 1
                rng = spawn_rng(seed, f"{variant}/s{stage_i}b{block_i}")
                block = BasicBlock(in_ch, width, stride=stride, rng=rng)
                self.add_stage(
                    f"block{stage_i + 1}.{block_i + 1}", block, width, block.output_hw(hw)
                )
        self.add_head(spawn_rng(seed, f"{variant}/head"))
