"""FLOP and kernel-dispatch accounting for modules and models: the two
inputs of a step's price on the execution simulator.

Counts multiply-accumulates as two FLOPs (the usual convention).  Modules
with data-dependent internals (e.g. residual blocks) expose a
``forward_flops(in_shape)`` hook which takes precedence, so the counter
stays open for extension without type sniffing every composite.

Both counts are memoized (:mod:`repro.utils.memo`): a module's kernel
count once, its FLOPs and output shape once per per-sample input shape.
The FLOPs are counted at batch 1 and scaled by the batch, which is exact
because every rule below and every ``forward_flops`` hook is linear in
the batch; a key per batch would keep one entry per probed batch size
for no new fact.  The walk below the module asked about applies the
rules directly, so the keys are what callers price -- units, heads,
models -- not every leaf of them (a residual block's hooks re-enter the
counter, so its branches are keys too): an entry per leaf showed as
~0.1 MiB more peak RSS on the ``sweep_evalsim_grid`` benchmark.  A
planner that prices many partitions, batches or sweep arms of one model
walks each unit once.
"""

from __future__ import annotations

import math

from repro.errors import ShapeError
from repro.nn.activations import LeakyReLU, ReLU, Tanh
from repro.nn.conv import Conv2d, DepthwiseConv2d
from repro.nn.dropout import Dropout
from repro.nn.flatten import Flatten
from repro.nn.linear import Linear
from repro.nn.module import Identity, Module, Sequential
from repro.nn.normalization import BatchNorm2d
from repro.nn.pooling import AdaptiveAvgPool2d, AvgPool2d, MaxPool2d
from repro.utils.memo import memoized

#: Paper Section 2.2: the backward pass costs up to 3x the forward FLOPs;
#: 2x is the standard estimate for conv nets and what every step price
#: reads (BP, classic LL, NeuroFlux units, profiling).  Only forward-only
#: Signal Propagation prices its step at its own ratio.
DEFAULT_BACKWARD_MULTIPLIER = 2.0


def _numel(shape: tuple[int, ...]) -> int:
    return math.prod(shape)


def module_forward_flops(
    module: Module, in_shape: tuple[int, ...]
) -> tuple[int, tuple[int, ...]]:
    """FLOPs of one forward pass and the resulting output shape.

    ``in_shape`` includes the batch dimension, e.g. ``(N, C, H, W)``.
    """
    n, *sample = in_shape
    flops, out_shape = memoized(
        module, "forward-flops", tuple(sample), lambda: walk_forward_flops(module, (1, *sample))
    )
    return flops * n, (n, *out_shape[1:])


def walk_forward_flops(
    module: Module, in_shape: tuple[int, ...]
) -> tuple[int, tuple[int, ...]]:
    """:func:`module_forward_flops` by the rules, at ``in_shape``'s batch
    and unmemoized: the walk below the module a caller asks about."""
    hook = getattr(module, "forward_flops", None)
    if hook is not None:
        return hook(in_shape)

    if isinstance(module, Sequential):
        total = 0
        shape = in_shape
        for child in module:
            f, shape = walk_forward_flops(child, shape)
            total += f
        return total, shape

    if isinstance(module, Conv2d):
        n, c, h, w = in_shape
        if c != module.in_channels:
            raise ShapeError(
                f"conv expects {module.in_channels} channels, shape has {c}"
            )
        oh, ow = module.output_hw((h, w))
        k = module.kernel_size
        macs = n * module.out_channels * oh * ow * c * k * k
        flops = 2 * macs
        if module.bias is not None:
            flops += n * module.out_channels * oh * ow
        return flops, (n, module.out_channels, oh, ow)

    if isinstance(module, DepthwiseConv2d):
        n, c, h, w = in_shape
        oh, ow = module.output_hw((h, w))
        k = module.kernel_size
        flops = 2 * n * c * oh * ow * k * k
        if module.bias is not None:
            flops += n * c * oh * ow
        return flops, (n, c, oh, ow)

    if isinstance(module, Linear):
        n = in_shape[0]
        flops = 2 * n * module.in_features * module.out_features
        if module.bias is not None:
            flops += n * module.out_features
        return flops, (n, module.out_features)

    if isinstance(module, BatchNorm2d):
        # mean/var/normalize/scale-shift: ~5 ops per element.
        return 5 * _numel(in_shape), in_shape

    if isinstance(module, (ReLU, LeakyReLU, Tanh)):
        return _numel(in_shape), in_shape

    if isinstance(module, (MaxPool2d, AvgPool2d)):
        n, c, h, w = in_shape
        oh, ow = module.output_hw((h, w))
        k = module.kernel_size
        return n * c * oh * ow * k * k, (n, c, oh, ow)

    if isinstance(module, AdaptiveAvgPool2d):
        n, c, h, w = in_shape
        oh, ow = module.output_hw((h, w))
        return _numel(in_shape), (n, c, oh, ow)

    if isinstance(module, Flatten):
        n = in_shape[0]
        return 0, (n, _numel(in_shape[1:]))

    if isinstance(module, (Identity, Dropout)):
        return 0, in_shape

    raise ShapeError(f"no FLOPs rule for module type {type(module).__name__}")


def model_forward_flops(model, batch_size: int = 1) -> int:
    """Forward FLOPs of a :class:`~repro.models.base.ConvNet` end to end."""
    shape: tuple[int, ...] = (batch_size, model.in_channels, *model.input_hw)
    total = 0
    for stage in model.stages:
        f, shape = module_forward_flops(stage, shape)
        total += f
    f, _ = module_forward_flops(model.head, shape)
    return total + f


def training_step_flops(
    forward_flops: int, backward_multiplier: float = DEFAULT_BACKWARD_MULTIPLIER
) -> int:
    """FLOPs of one training step given its forward cost."""
    return int(forward_flops * (1.0 + backward_multiplier))


def stage_output_shapes(model, batch_size: int = 1) -> list[tuple[int, ...]]:
    """Output shape after each stage (used by Figure 13's activation plot)."""
    shape: tuple[int, ...] = (batch_size, model.in_channels, *model.input_hw)
    shapes = []
    for stage in model.stages:
        _, shape = module_forward_flops(stage, shape)
        shapes.append(shape)
    return shapes


def count_module_kernels(module: Module) -> int:
    """Number of atomic kernel dispatches in one forward of ``module``.

    Used by the execution simulator to charge per-kernel launch overhead.
    """
    return memoized(module, "kernels", (), lambda: _kernels_rule(module))


def _kernels_rule(module: Module) -> int:
    """:func:`count_module_kernels` by the rules."""
    hook = getattr(module, "count_kernels", None)
    if hook is not None:
        return hook()
    if isinstance(module, Sequential):
        return sum(_kernels_rule(child) for child in module)
    n_children = sum(1 for _ in module.children())
    if n_children:
        return sum(_kernels_rule(c) for c in module.children()) + 1
    return 1


def model_kernel_count(model) -> int:
    """Kernel dispatches for one end-to-end forward of a ConvNet."""
    total = sum(count_module_kernels(stage) for stage in model.stages)
    if model.head is not None:
        total += count_module_kernels(model.head)
    return total
