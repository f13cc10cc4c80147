"""repro.backend: how the nn kernels use the host's compute.

numpy is the one array engine, and every GEMM runs on one BLAS thread;
this package holds what sits around them:

* :mod:`.registry` -- ``matmul``, the GEMM every conv and linear kernel
  calls, where the one-thread rule applies;
* :mod:`.blas` -- the rule and its control of the loaded OpenBLAS;
* :mod:`.multiproc` -- the multiprocess block-parallel executor: blocks
  are gradient-independent under local learning, so stages of blocks
  train concurrently in forked worker processes with shared-memory
  activation handoff;
* :mod:`.bf16` -- bf16 *weight-storage* emulation (truncated-uint16
  storage semantics on fp32 compute arrays), reported through the
  existing peak-memory plumbing.

A JobSpec ``compute`` section (:class:`repro.api.spec.ComputeSection`)
selects the last two and reaches the controller as a
:class:`ComputeConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ComputeConfig:
    """Validated compute selection, as carried by a JobSpec ``compute``
    section.

    ``bf16_weights`` turns on truncated-uint16 weight storage (fp32
    compute); ``processes`` is the worker-process count for the
    multiprocess block-parallel executor (``None`` = one per pipeline
    stage, capped at the core count).
    """

    bf16_weights: bool = False
    processes: int | None = None

