"""Inference-throughput evaluation on simulated platforms (Table 3, Fig 14).

Converts a model's inference FLOPs into images/second on a given platform
via the execution-time model.  BP and classic LL deploy the full CNN;
NeuroFlux deploys its early-exit model, whose smaller FLOP count is what
produces the 1.61x-3.95x throughput gains the paper reports.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.flops.count import (
    count_module_kernels,
    model_forward_flops,
    model_kernel_count,
    module_forward_flops,
)
from repro.hw.platforms import Platform
from repro.nn.module import Module


@dataclass(frozen=True)
class ThroughputResult:
    """Images/second of a model on a platform at a given batch size."""

    platform_name: str
    model_name: str
    batch_size: int
    images_per_second: float
    flops_per_image: int


def modules_forward_cost(
    modules, in_shape: tuple[int, ...]
) -> tuple[int, int, tuple[int, ...]]:
    """FLOPs, kernel dispatches and output shape of a module pipeline.

    The shared FLOP->seconds entry point for throughput evaluation and the
    serving simulator's cascade cost model.
    """
    flops = 0
    n_kernels = 0
    shape = in_shape
    for module in modules:
        f, shape = module_forward_flops(module, shape)
        flops += f
        n_kernels += count_module_kernels(module)
    return flops, n_kernels, shape


def inference_throughput(
    flops_per_image: int,
    sample_bytes: int,
    n_kernels: int,
    platform: Platform,
    batch_size: int = 64,
    model_name: str = "",
) -> ThroughputResult:
    """Throughput from a FLOP count (low-level entry point)."""
    compute = flops_per_image * batch_size / platform.effective_flops
    io = sample_bytes * batch_size / platform.host_bandwidth
    overhead = n_kernels * platform.kernel_launch_overhead
    seconds = compute + io + overhead
    return ThroughputResult(
        platform_name=platform.name,
        model_name=model_name,
        batch_size=batch_size,
        images_per_second=batch_size / seconds,
        flops_per_image=flops_per_image,
    )


def convnet_throughput(
    model, platform: Platform, batch_size: int = 64, sample_bytes: int | None = None
) -> ThroughputResult:
    """Throughput of a full ConvNet (BP / classic LL deployment)."""
    flops = model_forward_flops(model, 1)
    if sample_bytes is None:
        sample_bytes = 4 * model.in_channels * model.input_hw[0] * model.input_hw[1]
    return inference_throughput(
        flops,
        sample_bytes,
        model_kernel_count(model),
        platform,
        batch_size,
        model_name=model.name,
    )


def exit_model_throughput(
    exit_model: Module,
    in_channels: int,
    input_hw: tuple[int, int],
    platform: Platform,
    batch_size: int = 64,
) -> ThroughputResult:
    """Throughput of a NeuroFlux early-exit deployment."""
    shape: tuple[int, ...] = (1, in_channels, *input_hw)
    flops, n_kernels, _ = modules_forward_cost(
        [*exit_model.stages, exit_model.exit_heads[-1]], shape
    )
    sample_bytes = 4 * in_channels * input_hw[0] * input_hw[1]
    return inference_throughput(
        flops,
        sample_bytes,
        n_kernels,
        platform,
        batch_size,
        model_name=getattr(exit_model, "name", "exit-model"),
    )


def throughput_gain(full: ThroughputResult, exit_result: ThroughputResult) -> float:
    """NeuroFlux's deployment speedup over the full model (Figure 14)."""
    return exit_result.images_per_second / full.images_per_second
