"""Ablations of NeuroFlux's design choices (DESIGN.md section 5).

* rho sweep -- the grouping threshold the paper fixed at 40% after a
  10%-70% sweep (Section 5.2).
* aux rule -- adaptive (AAN) vs classic 256-filter vs uniformly-small
  heads: the accuracy/memory trade-off of Section 3, Opportunity 1.
* cache and adaptive-batch switches -- how much each mechanism contributes
  to the end-to-end training time.
"""

from __future__ import annotations

from repro.core.auxiliary import build_aux_heads
from repro.core.config import NeuroFluxConfig
from repro.core.controller import NeuroFlux
from repro.data.registry import dataset_spec
from repro.evalsim.training_time import simulate_neuroflux
from repro.experiments.common import MB, ExperimentResult, small_training_setup
from repro.hw.platforms import AGX_ORIN
from repro.memory.estimator import ll_training_memory
from repro.models.zoo import build_model
from repro.training.local import LocalLearningTrainer


def run_rho_sweep(
    rhos: tuple[float, ...] = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7),
    model_name: str = "vgg16",
    dataset: str = "cifar10",
    budget_mb: int = 300,
    epochs: int = 50,
) -> ExperimentResult:
    """Simulated training time and block structure across rho (Section 5.2)."""
    spec = dataset_spec(dataset)
    result = ExperimentResult(
        experiment_id="ablation-rho",
        title=f"Grouping threshold sweep ({model_name}, {budget_mb} MB)",
        columns=["rho", "n_blocks", "train_hours", "min_batch", "max_batch"],
    )
    for rho in rhos:
        model = build_model(model_name, num_classes=spec.num_classes, input_hw=spec.image_hw)
        run = simulate_neuroflux(
            model, spec, AGX_ORIN, epochs, memory_budget=budget_mb * MB, rho=rho
        )
        sizes = [b.batch_size for b in run.blocks]
        result.add_row(rho, len(run.blocks), run.time_s / 3600, min(sizes), max(sizes))
    result.notes.append(
        "paper: 40% balanced grouping granularity and convergence across "
        "the 10%-70% sweep"
    )
    return result


def run_aux_rule_ablation(
    epochs: int = 5,
    seed: int = 7,
) -> ExperimentResult:
    """AAN vs classic vs uniformly-small heads: accuracy and memory.

    Section 3, Opportunity 1: uniformly shrinking every head saves memory
    but costs accuracy; the adaptive rule keeps both.  Uses a 0.25-width
    model so the scaled-down adaptive head widths stay meaningful.
    """
    result = ExperimentResult(
        experiment_id="ablation-aux",
        title="Auxiliary-head rule ablation (accuracy vs worst-layer memory)",
        columns=["rule", "test_accuracy", "train_memory_MB_at_b32"],
    )
    for rule in ("aan", "classic", "uniform-small"):
        model, data = small_training_setup(width_multiplier=0.25, seed=seed)
        trainer = LocalLearningTrainer(
            model, data, aux_rule=rule, classic_filters=64, seed=seed
        )
        run = trainer.train(epochs=epochs, batch_size=32)
        heads = build_aux_heads(model, rule=rule, classic_filters=64, seed=seed)
        mem = ll_training_memory(
            model, list(heads[:-1]) + [None], 32, residency="params-only"
        ).total
        result.add_row(rule, run.final_accuracy, mem / MB)
    result.notes.append(
        "paper shape: classic costs the most memory; uniformly-small is "
        "cheap but weakest; adaptive keeps accuracy at low memory"
    )
    return result


def run_mechanism_ablation(
    model_name: str = "vgg16",
    dataset: str = "cifar10",
    budget_mb: int = 200,
    epochs: int = 50,
) -> ExperimentResult:
    """Contribution of caching and adaptive batching to training time."""
    spec = dataset_spec(dataset)
    result = ExperimentResult(
        experiment_id="ablation-mechanisms",
        title=f"Mechanism ablation ({model_name}, {budget_mb} MB, simulated)",
        columns=["variant", "train_hours", "compute_hours", "overhead_hours"],
    )
    variants = [
        ("full NeuroFlux", dict(use_cache=True, adaptive_batch=True)),
        ("no activation cache", dict(use_cache=False, adaptive_batch=True)),
        ("fixed global batch", dict(use_cache=True, adaptive_batch=False)),
        ("neither", dict(use_cache=False, adaptive_batch=False)),
    ]
    for label, kwargs in variants:
        model = build_model(model_name, num_classes=spec.num_classes, input_hw=spec.image_hw)
        run = simulate_neuroflux(
            model, spec, AGX_ORIN, epochs, memory_budget=budget_mb * MB, **kwargs
        )
        result.add_row(
            label,
            run.time_s / 3600,
            run.ledger.compute / 3600,
            run.ledger.overhead / 3600,
        )
    result.notes.append(
        "expected: removing either mechanism increases training time; "
        "removing both approaches classic-LL behaviour"
    )
    return result
