"""Multi-device pipeline-parallel training for NeuroFlux.

Blocks of locally-trained layers have only a forward activation
dependency, which makes them pipelineable across devices:

* :mod:`repro.parallel.cluster` -- simulated heterogeneous device cluster
  (per-device execution simulators, links with bandwidth/latency) and
  the :class:`~repro.parallel.cluster.DeviceContext` every schedule
  places its blocks through;
* :mod:`repro.parallel.schedules` -- the sequential and pipelined
  cluster schedules behind ``train_parallel``;
* :mod:`repro.parallel.placement` -- block-to-device placement optimizer
  (round-robin/greedy baselines + local search on predicted makespan);
* :mod:`repro.parallel.pipeline` -- the micro-batch pipeline executor and
  its timing model (bounded queues, back-pressure, bubble accounting);
* :mod:`repro.parallel.report` -- structured results;
* :mod:`repro.parallel.bench` -- the committed pipeline benchmark
  (``repro bench pipeline``, ``BENCH_pipeline.json``).

Entry point: :meth:`repro.core.controller.NeuroFlux.train_parallel`.
"""

from repro.parallel.cluster import (
    DEFAULT_EDGE_CLUSTER,
    Cluster,
    Device,
    ledger_delta,
)
from repro.parallel.pipeline import (
    PipelineClock,
    PipelineExecutor,
    PipelineStats,
    schedule_timing,
)
from repro.parallel.placement import (
    BlockCost,
    PlacementProblem,
    PlacementResult,
    block_cost,
    build_problem,
    first_fit_placement,
    greedy_placement,
    optimize_placement,
    placement_feasible,
    predict_makespan,
    round_robin_placement,
)
from repro.parallel.report import ParallelReport

__all__ = [
    "BlockCost",
    "Cluster",
    "DEFAULT_EDGE_CLUSTER",
    "Device",
    "ParallelReport",
    "PipelineClock",
    "PipelineExecutor",
    "PipelineStats",
    "PlacementProblem",
    "PlacementResult",
    "block_cost",
    "build_problem",
    "first_fit_placement",
    "greedy_placement",
    "ledger_delta",
    "optimize_placement",
    "placement_feasible",
    "predict_makespan",
    "round_robin_placement",
    "schedule_timing",
]
