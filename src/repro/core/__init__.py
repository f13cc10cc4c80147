"""NeuroFlux: the paper's primary contribution.

Adaptive local learning for memory-constrained CNN training: adaptive
auxiliary networks (AAN-LL), block partitioning with adaptive batch sizes
(AB-LL), activation caching, and early-exit output-model selection.
"""

from repro.core.auxiliary import (
    CLASSIC_AUX_FILTERS,
    AuxiliaryHead,
    aan_filter_count,
    aux_filter_counts,
    build_aux_heads,
)
from repro.core.cache import ActivationStore
from repro.core.config import NeuroFluxConfig
from repro.core.controller import NeuroFlux
from repro.core.early_exit import (
    ExitCandidate,
    MultiExitModel,
    exit_model_parameters,
    select_exit,
)
from repro.core.partitioner import (
    DEFAULT_GROUPING_THRESHOLD,
    Block,
    feasible_batches,
    partition,
    validate_partition,
)
from repro.core.prefetcher import rebatch
from repro.core.profiler import (
    LinearMemoryModel,
    MemoryProfiler,
    ProfileResult,
    measure_unit_memory,
)
from repro.core.report import BlockReport, NeuroFluxReport
from repro.core.worker import BlockCost, BlockWorker, block_cost

__all__ = [
    "ActivationStore",
    "AuxiliaryHead",
    "Block",
    "BlockCost",
    "BlockReport",
    "BlockWorker",
    "CLASSIC_AUX_FILTERS",
    "DEFAULT_GROUPING_THRESHOLD",
    "ExitCandidate",
    "LinearMemoryModel",
    "MemoryProfiler",
    "MultiExitModel",
    "NeuroFlux",
    "NeuroFluxConfig",
    "NeuroFluxReport",
    "ProfileResult",
    "aan_filter_count",
    "aux_filter_counts",
    "block_cost",
    "build_aux_heads",
    "exit_model_parameters",
    "feasible_batches",
    "measure_unit_memory",
    "partition",
    "rebatch",
    "select_exit",
]
