"""Simulated GPU memory subsystem: analytic estimator + budgeted allocator.

Substitutes for CUDA memory measurement in the paper's evaluation; see
DESIGN.md section 2 for the substitution rationale.
"""

from repro.memory.estimator import (
    FLOAT_BYTES,
    MemoryBreakdown,
    bp_memory_by_batch,
    bp_training_memory,
    inference_memory,
    iter_atomic_ops,
    ll_memory_by_batch,
    ll_training_memory,
    local_unit_memory_by_batch,
    local_unit_training_memory,
    module_max_workspace_bytes,
    module_sum_workspace_bytes,
    module_peak_transient_bytes,
    module_retained_bytes,
    op_workspace_bytes,
    optimizer_state_bytes,
    retained_bytes,
)
from repro.memory.tracker import ALLOCATOR_ALIGNMENT, SimulatedGpu, measure_peak

__all__ = [
    "ALLOCATOR_ALIGNMENT",
    "FLOAT_BYTES",
    "MemoryBreakdown",
    "SimulatedGpu",
    "bp_memory_by_batch",
    "bp_training_memory",
    "inference_memory",
    "iter_atomic_ops",
    "ll_memory_by_batch",
    "ll_training_memory",
    "local_unit_memory_by_batch",
    "module_max_workspace_bytes",
    "module_sum_workspace_bytes",
    "op_workspace_bytes",
    "local_unit_training_memory",
    "measure_peak",
    "module_peak_transient_bytes",
    "module_retained_bytes",
    "optimizer_state_bytes",
    "retained_bytes",
]
