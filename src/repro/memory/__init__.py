"""Simulated GPU memory subsystem: analytic estimator + budgeted allocator.

No GPU is measured here.  The estimator writes down, op by op, the
tensors a PyTorch/cuDNN training step holds -- the quantity the paper's
Profiler reads with ``torch.cuda.max_memory_allocated()`` -- and the
allocator replays a unit's tensor list with CUDA's 512-byte granularity
under a budget whose overflow stands in for a CUDA OOM.
"""

from repro.memory.estimator import (
    FLOAT_BYTES,
    MemoryBreakdown,
    bp_memory_by_batch,
    bp_training_memory,
    checkpointed_training_memory,
    inference_memory,
    iter_atomic_ops,
    ll_memory_by_batch,
    ll_training_memory,
    local_unit_memory_by_batch,
    local_unit_tensors_by_batch,
    local_unit_training_memory,
    module_max_workspace_bytes,
    module_peak_transient_bytes,
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
    "checkpointed_training_memory",
    "inference_memory",
    "iter_atomic_ops",
    "ll_memory_by_batch",
    "ll_training_memory",
    "local_unit_memory_by_batch",
    "local_unit_tensors_by_batch",
    "module_max_workspace_bytes",
    "op_workspace_bytes",
    "local_unit_training_memory",
    "measure_peak",
    "module_peak_transient_bytes",
    "optimizer_state_bytes",
    "retained_bytes",
]
