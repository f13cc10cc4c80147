"""repro.backend: how the nn kernels use the host's compute.

numpy is the one array engine, and every GEMM runs on one BLAS thread;
this package holds what sits around them:

* :mod:`.registry` -- ``matmul``, the GEMM every conv and linear kernel
  calls, where the one-thread rule applies;
* :mod:`.blas` -- the rule and its control of the loaded OpenBLAS;
* :mod:`.multiproc` -- the multiprocess block-parallel executor: blocks
  are gradient-independent under local learning, so stages of blocks
  train concurrently in forked worker processes with shared-memory
  activation handoff.

A JobSpec ``compute`` section (:class:`repro.api.spec.ComputeSection`)
sets the last one's process count, which the ``multiprocess`` backend
passes to :func:`.multiproc.run_block_parallel`.
"""
