"""repro: a full reproduction of NeuroFlux (EuroSys '24).

NeuroFlux trains CNNs under tight GPU-memory budgets with *adaptive local
learning*: per-layer auxiliary classifiers with adaptive widths (AAN-LL),
memory-driven block partitioning with per-block batch sizes (AB-LL),
activation caching to skip forward passes over trained blocks, and
early-exit output-model selection.

Quick start::

    from repro import NeuroFlux, NeuroFluxConfig, build_model, dataset_spec

    data = dataset_spec("cifar10", scale=0.01).materialize()
    model = build_model("vgg16", num_classes=10, width_multiplier=0.25)
    system = NeuroFlux(model, data, memory_budget=64 * 2**20)
    report = system.run(epochs=3)
    print(report.summary())

Subpackages:

* :mod:`repro.core` -- the NeuroFlux system itself.
* :mod:`repro.nn` -- from-scratch numpy CNN training substrate.
* :mod:`repro.models` -- VGG/ResNet/MobileNet zoo with local-layer views.
* :mod:`repro.memory` -- simulated GPU memory estimator and allocator.
* :mod:`repro.hw` -- edge-platform descriptors and execution-time simulator.
* :mod:`repro.data` -- synthetic stand-ins for CIFAR-10/100, Tiny ImageNet.
* :mod:`repro.training` -- BP, classic LL, FA and SP baselines.
* :mod:`repro.evalsim` -- inference-throughput evaluation.
* :mod:`repro.serving` -- early-exit serving parts: workload, batcher, cascade.
* :mod:`repro.fleet` -- the serving simulator (one replica or a sharded fleet).
* :mod:`repro.parallel` -- multi-device pipeline-parallel training.
* :mod:`repro.api` -- unified job API: declarative :class:`JobSpec`,
  backend registry behind one ``run(spec)`` entry point, unified
  callback and report protocols (``repro run <spec.json>`` on the CLI).
* :mod:`repro.sweep` -- declarative experiment engine: grid sweeps over
  JobSpecs with a parallel crash-resumable driver and a queryable
  results store (``repro sweep`` on the CLI).
"""

from repro.core import NeuroFlux, NeuroFluxConfig, NeuroFluxReport
from repro.data import DataLoader, DatasetSpec, SyntheticImageDataset, dataset_spec
from repro.errors import (
    ConfigError,
    MemoryBudgetExceeded,
    PartitionError,
    PlacementError,
    ProfilingError,
    ReproError,
    ShapeError,
)
from repro.hw import AGX_ORIN, JETSON_NANO, RASPBERRY_PI_4B, XAVIER_NX, get_platform
from repro.models import build_model, list_models
from repro.serving import CascadeRouter, ServerConfig, WorkloadSpec
from repro.training import (
    BackpropTrainer,
    FeedbackAlignmentTrainer,
    LocalLearningTrainer,
    SignalPropagationTrainer,
)

__version__ = "1.0.0"

__all__ = [
    "AGX_ORIN",
    "BackpropTrainer",
    "CascadeRouter",
    "ConfigError",
    "DataLoader",
    "DatasetSpec",
    "FeedbackAlignmentTrainer",
    "JETSON_NANO",
    "LocalLearningTrainer",
    "MemoryBudgetExceeded",
    "NeuroFlux",
    "NeuroFluxConfig",
    "NeuroFluxReport",
    "PartitionError",
    "PlacementError",
    "ProfilingError",
    "RASPBERRY_PI_4B",
    "ReproError",
    "ServerConfig",
    "ShapeError",
    "SignalPropagationTrainer",
    "SyntheticImageDataset",
    "WorkloadSpec",
    "XAVIER_NX",
    "build_model",
    "dataset_spec",
    "get_platform",
    "list_models",
    "__version__",
]
