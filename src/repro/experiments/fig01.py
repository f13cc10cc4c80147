"""Figure 1: BP memory breakdown and relative training time vs batch size.

Paper: ResNet-18 and VGG-19 on Tiny ImageNet, batches {4, 8, 256}.  Top
row: GPU memory split into activations / model / optimizer, annotated with
the multiplier over inference memory.  Bottom row: epoch training time
relative to batch 256 (batch 4 is 5x/9x slower).
"""

from __future__ import annotations

from repro.data.registry import dataset_spec
from repro.experiments.common import MB, ExperimentResult
from repro.hw.platforms import AGX_ORIN, Platform
from repro.hw.simulator import ExecutionSimulator
from repro.memory.estimator import bp_training_memory, inference_memory
from repro.models.zoo import build_model
from repro.training.backprop import bp_step_price

BATCHES = (4, 8, 256)


def simulated_epoch_time(
    model, n_samples: int, batch_size: int, sample_bytes: int, platform: Platform
) -> float:
    """Simulated seconds for one BP epoch at a given batch size."""
    sim = ExecutionSimulator(platform)
    step_flops, n_kernels = bp_step_price(model)
    full, rem = divmod(n_samples, batch_size)
    for _ in range(full):
        sim.add_training_step(step_flops * batch_size, sample_bytes * batch_size, n_kernels)
    if rem:
        sim.add_training_step(step_flops * rem, sample_bytes * rem, n_kernels)
    return sim.elapsed


def run(
    model_names: tuple[str, ...] = ("resnet18", "vgg19"),
    dataset: str = "tiny-imagenet",
    platform: Platform = AGX_ORIN,
) -> ExperimentResult:
    spec = dataset_spec(dataset)
    result = ExperimentResult(
        experiment_id="fig01",
        title="BP memory breakdown and relative epoch time vs batch size "
        f"({dataset}, {platform.name})",
        columns=[
            "model", "batch", "activations_MB", "model_MB", "optimizer_MB",
            "mem_vs_inference", "rel_time_vs_b256",
        ],
    )
    for name in model_names:
        model = build_model(name, num_classes=spec.num_classes, input_hw=spec.image_hw)
        t256 = simulated_epoch_time(model, spec.n_train, 256, spec.sample_bytes, platform)
        infer = inference_memory(model, 1).total
        for batch in BATCHES:
            breakdown = bp_training_memory(model, batch)
            t = simulated_epoch_time(model, spec.n_train, batch, spec.sample_bytes, platform)
            result.add_row(
                name,
                batch,
                breakdown.activations / MB,
                breakdown.parameters / MB,
                breakdown.optimizer / MB,
                breakdown.total / infer,
                t / t256,
            )
    result.notes.append(
        "paper shape: activations dominate; batch 4 is 5x (ResNet-18) / 9x "
        "(VGG-19) slower than batch 256"
    )
    return result
