"""Early-exit inference serving: the parts one server is made of.

Open-loop workload generation (:mod:`repro.serving.workload`), adaptive
micro-batching (:mod:`repro.serving.batcher`), confidence-gated exit
cascades over the per-layer auxiliary heads with their FLOP/kernel cost
model (:mod:`repro.serving.cascade`), and the per-server batching and
admission knobs (:mod:`repro.serving.server`).

The serving *loop* lives in :mod:`repro.fleet`: a single server is a
fleet of one replica on one device, so the ``serving`` backend runs
:class:`~repro.fleet.FleetSimulator` with one replica and
``cluster-serving`` runs it with N.  ``repro run
examples/specs/serving.json`` is the front door; in code::

    from repro.api import JobSpec, run

    report = run(JobSpec.from_json_file("examples/specs/serving.json"))
    print(report.summary())
"""

from repro.serving.batcher import AdaptiveBatcher, BatchPlan
from repro.serving.cascade import (
    CascadeCostModel,
    CascadeRouter,
    ExitCost,
    RoutedBatch,
)
from repro.serving.server import ServerConfig
from repro.serving.workload import (
    ARRIVAL_PATTERNS,
    Request,
    WorkloadSpec,
    generate_requests,
    iter_requests,
)

__all__ = [
    "ARRIVAL_PATTERNS",
    "AdaptiveBatcher",
    "BatchPlan",
    "CascadeCostModel",
    "CascadeRouter",
    "ExitCost",
    "Request",
    "RoutedBatch",
    "ServerConfig",
    "WorkloadSpec",
    "generate_requests",
    "iter_requests",
]
