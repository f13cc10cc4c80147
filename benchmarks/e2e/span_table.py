"""The one table behind the traced run: layer -> public callable -> span.

Every row names a public callable of ``repro`` by its dotted path, the
span its calls are recorded under, and the workloads on which it *must*
run and *must not* run.  The traced repetition fails loudly when a
target does not resolve, when a ``runs_on`` row records no call, or when
a ``bypassed_on`` row records one -- a silently-zero layer metric is
worse than a crash.  :data:`LAYER_METRICS` then says how each per-layer
metric of ``BENCHMARK.json`` is read off the spans.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

SEQ = "train_seq_cache"
MP = "train_mp_2proc"
FLEET = "serve_fleet_churn"
SWEEP = "sweep_evalsim_grid"
ALL = frozenset({SEQ, MP, FLEET, SWEEP})

#: Workloads that run numpy training somewhere in the child (``FLEET``
#: trains the served model during set-up).
TRAINING = frozenset({SEQ, MP, FLEET})
#: Workloads that train block after block with ``NeuroFlux.run``.
BLOCKWISE = frozenset({SEQ, FLEET})
#: The activation cache sits between blocks: ``SEQ`` has four, ``FLEET``'s
#: small served model fits its budget as one block and never touches it.
CACHED = {"runs_on": frozenset({SEQ}), "bypassed_on": frozenset({MP, SWEEP})}


@dataclass(frozen=True)
class SpanRow:
    layer: str
    target: str
    span: str
    runs_on: frozenset = frozenset()
    bypassed_on: frozenset = frozenset()
    #: ``measure(args, kwargs, result) -> {counter: amount}``; for a
    #: generator target ``result`` is each yielded item.
    measure: Callable | None = None


def _only(workloads: frozenset) -> dict:
    return {"runs_on": workloads, "bypassed_on": ALL - workloads}


def _matmul_flops(args, kwargs, result) -> dict:
    (m, k), n = args[0].shape, args[1].shape[1]
    return {"backend.matmul_flops": 2 * m * k * n}


def _train_samples(args, kwargs, result) -> dict:
    return {"core.train_samples": len(args[1])}  # args = (worker, x, y)


def _cache_write_bytes(args, kwargs, result) -> dict:
    return {"core.cache_write_bytes": result}


def _cache_read_bytes(args, kwargs, item) -> dict:
    return {"core.cache_read_bytes": item[0].nbytes + item[1].nbytes}


_SIM = "repro.hw.simulator.ExecutionSimulator."
_NN = "repro.nn."

SPAN_TABLE: tuple[SpanRow, ...] = (
    # api: the front door every workload goes through.
    SpanRow("api", "repro.api.spec.JobSpec.from_dict", "api.spec_parse", runs_on=ALL),
    SpanRow("api", "repro.api.registry.run", "api.run", **_only(frozenset({SEQ, MP, SWEEP}))),
    SpanRow("api", "repro.api.backends.SequentialBackend.prepare", "api.prepare",
            **_only(frozenset({SEQ}))),
    SpanRow("api", "repro.api.backends.MultiprocessBackend.prepare", "api.prepare",
            **_only(frozenset({MP}))),
    SpanRow("api", "repro.api.backends.ClusterServingBackend.prepare", "api.prepare",
            **_only(frozenset({FLEET}))),
    SpanRow("api", "repro.api.backends.EvalSimBackend.prepare", "api.prepare",
            **_only(frozenset({SWEEP}))),
    # data
    SpanRow("data", "repro.data.datasets.DatasetSpec.materialize", "data.materialize",
            **_only(TRAINING)),
    SpanRow("data", "repro.data.loader.DataLoader.__iter__", "data.loader_wait",
            **_only(TRAINING)),
    # models
    SpanRow("models", "repro.models.zoo.build_model", "models.build", runs_on=ALL),
    # core
    SpanRow("core", "repro.core.controller.NeuroFlux.run", "core.run", **_only(BLOCKWISE)),
    SpanRow("core", "repro.core.profiler.MemoryProfiler.profile", "core.profile", runs_on=ALL),
    SpanRow("core", "repro.core.partitioner.partition", "core.partition", runs_on=ALL),
    SpanRow("core", "repro.core.worker.BlockWorker.train_pass", "core.train_pass",
            **_only(BLOCKWISE)),
    SpanRow("core", "repro.core.worker.BlockWorker.train_batch", "core.train_batch",
            measure=_train_samples, **_only(TRAINING)),
    SpanRow("core", "repro.core.worker.BlockWorker.forward_pass", "core.forward_pass",
            **CACHED),
    SpanRow("core", "repro.core.prefetcher.rebatch", "core.rebatch", **CACHED),
    SpanRow("core", "repro.core.cache.ActivationStore.write", "core.cache_write",
            measure=_cache_write_bytes, **CACHED),
    SpanRow("core", "repro.core.cache.ActivationStore.batches", "core.cache_read",
            measure=_cache_read_bytes, **CACHED),
    # training
    SpanRow("training", "repro.training.common.evaluate_classifier", "training.evaluate",
            **_only(TRAINING)),
    # nn kernels (the fused NHWC lowerings are not on any workload's path;
    # they share the span so a spec that turns them on is still counted)
    SpanRow("nn", _NN + "conv.Conv2d.forward", "nn.conv_fwd", **_only(TRAINING)),
    SpanRow("nn", _NN + "conv.Conv2d.backward", "nn.conv_bwd", **_only(TRAINING)),
    SpanRow("nn", _NN + "functional.im2col", "nn.im2col", **_only(TRAINING)),
    SpanRow("nn", _NN + "functional.im2col_nhwc", "nn.im2col", bypassed_on=ALL),
    SpanRow("nn", _NN + "functional.col2im", "nn.col2im", bypassed_on=frozenset({SWEEP})),
    SpanRow("nn", _NN + "functional.col2im_nhwc", "nn.col2im", bypassed_on=ALL),
    SpanRow("nn", _NN + "normalization.BatchNorm2d.forward", "nn.norm_fwd", **_only(TRAINING)),
    SpanRow("nn", _NN + "normalization.BatchNorm2d.backward", "nn.norm_bwd", **_only(TRAINING)),
    SpanRow("nn", _NN + "pooling.MaxPool2d.forward", "nn.pool_fwd", **_only(TRAINING)),
    SpanRow("nn", _NN + "pooling.MaxPool2d.backward", "nn.pool_bwd", **_only(TRAINING)),
    SpanRow("nn", _NN + "pooling.AdaptiveAvgPool2d.forward", "nn.pool_fwd", **_only(TRAINING)),
    SpanRow("nn", _NN + "pooling.AdaptiveAvgPool2d.backward", "nn.pool_bwd", **_only(TRAINING)),
    SpanRow("nn", _NN + "activations.ReLU.forward", "nn.act", **_only(TRAINING)),
    SpanRow("nn", _NN + "activations.ReLU.backward", "nn.act", **_only(TRAINING)),
    SpanRow("nn", _NN + "linear.Linear.forward", "nn.linear", **_only(TRAINING)),
    SpanRow("nn", _NN + "linear.Linear.backward", "nn.linear", **_only(TRAINING)),
    SpanRow("nn", _NN + "losses.CrossEntropyLoss.forward", "nn.loss", **_only(TRAINING)),
    SpanRow("nn", _NN + "losses.CrossEntropyLoss.backward", "nn.loss", **_only(TRAINING)),
    SpanRow("nn", _NN + "optim.SGD.step", "nn.optim_step", **_only(TRAINING)),
    SpanRow("nn", _NN + "optim.Adam.step", "nn.optim_step", bypassed_on=ALL),
    # backend
    SpanRow("backend", "repro.backend.registry.matmul", "backend.matmul",
            measure=_matmul_flops, **_only(TRAINING)),
    SpanRow("backend", "repro.backend.multiproc.run_block_parallel", "backend.mp_run",
            **_only(frozenset({MP}))),
    # hw: every charge the execution simulator books
    SpanRow("hw", _SIM + "add_training_step", "hw.train_step", runs_on=ALL),
    SpanRow("hw", _SIM + "add_inference_batch", "hw.sim_charge"),
    SpanRow("hw", _SIM + "add_serving_batch", "hw.sim_charge", runs_on=frozenset({FLEET})),
    SpanRow("hw", _SIM + "add_cache_write", "hw.sim_charge"),
    SpanRow("hw", _SIM + "add_cache_read", "hw.sim_charge"),
    SpanRow("hw", _SIM + "add_profiling", "hw.sim_charge"),
    SpanRow("hw", _SIM + "add_communication", "hw.sim_charge"),
    SpanRow("hw", _SIM + "charge", "hw.sim_charge"),
    # memory
    SpanRow("memory", "repro.memory.tracker.SimulatedGpu.alloc", "memory.gpu_alloc",
            runs_on=ALL),
    # evalsim
    SpanRow("evalsim", "repro.evalsim.training_time.simulate_bp", "evalsim.simulate_bp",
            **_only(frozenset({SWEEP}))),
    SpanRow("evalsim", "repro.evalsim.training_time.simulate_classic_ll",
            "evalsim.simulate_classic_ll", **_only(frozenset({SWEEP}))),
    SpanRow("evalsim", "repro.evalsim.training_time.simulate_neuroflux",
            "evalsim.simulate_neuroflux", **_only(frozenset({SWEEP}))),
    # sweep
    SpanRow("sweep", "repro.sweep.driver.run_sweep", "sweep.run", **_only(frozenset({SWEEP}))),
    SpanRow("sweep", "repro.sweep.spec.SweepSpec.expand", "sweep.expand",
            **_only(frozenset({SWEEP}))),
    SpanRow("sweep", "repro.sweep.store.ResultsStore.append", "sweep.journal_append",
            **_only(frozenset({SWEEP}))),
    # serving
    SpanRow("serving", "repro.serving.workload.iter_requests", "serving.workload_gen",
            **_only(frozenset({FLEET}))),
    # fleet
    SpanRow("fleet", "repro.fleet.simulator.simulate_fleet", "fleet.simulate",
            **_only(frozenset({FLEET}))),
    SpanRow("fleet", "repro.fleet.simulator.build_route_cache", "fleet.route_cache",
            **_only(frozenset({FLEET}))),
    SpanRow("fleet", "repro.fleet.sharding.plan_cascade_shards", "fleet.shard_plan",
            **_only(frozenset({FLEET}))),
    SpanRow("fleet", "repro.fleet.simulator.FleetSimulator.run", "fleet.sim_run",
            **_only(frozenset({FLEET}))),
    SpanRow("fleet", "repro.fleet.router.FleetRouter.pick", "fleet.router_pick",
            **_only(frozenset({FLEET}))),
    SpanRow("fleet", "repro.fleet.replica.CascadeReplica.serve_batch", "fleet.serve_batch",
            **_only(frozenset({FLEET}))),
    # parallel: the placement optimizer the shard planner calls
    SpanRow("parallel", "repro.parallel.placement.optimize_placement", "parallel.placement",
            **_only(frozenset({FLEET}))),
    SpanRow("parallel", "repro.parallel.placement.predict_makespan", "parallel.placement_eval",
            **_only(frozenset({FLEET}))),
)

LAYER_OF_SPAN = {row.span: row.layer for row in SPAN_TABLE}


@dataclass(frozen=True)
class LayerMetric:
    """One per-layer metric and where its value comes from.

    ``source`` is ``(kind, key)``: ``total`` / ``self`` / ``calls``
    read the summary of the named span(s), ``items`` and
    ``counter`` read a recorder counter, ``traced`` reads a value the
    traced child computes itself, and ``parent`` one that ``run.py``
    derives from the untraced repetitions or the memory pass.
    """

    name: str
    unit: str
    better: str
    source: tuple


def _seconds(name: str, *spans: str, kind: str = "total") -> LayerMetric:
    return LayerMetric(name, "s", "lower", (kind, spans))


_HW_SPANS = ("hw.train_step", "hw.sim_charge")

LAYER_METRICS: tuple[LayerMetric, ...] = (
    _seconds("api.spec_parse_s", "api.spec_parse"),
    _seconds("api.prepare_s", "api.prepare"),
    _seconds("data.materialize_s", "data.materialize"),
    _seconds("data.loader_wait_s", "data.loader_wait"),
    LayerMetric("data.loader_batches", "count", "higher", ("items", "data.loader_wait")),
    _seconds("models.build_s", "models.build"),
    LayerMetric("models.builds", "count", "lower", ("calls", ("models.build",))),
    _seconds("core.profile_s", "core.profile"),
    _seconds("core.partition_s", "core.partition"),
    LayerMetric("core.blocks", "count", "higher", ("traced", "blocks")),
    _seconds("core.train_pass_s", "core.train_pass"),
    _seconds("core.train_batch_s", "core.train_batch"),
    LayerMetric("core.train_batches", "count", "higher", ("calls", ("core.train_batch",))),
    LayerMetric("core.train_samples", "count", "higher", ("counter", "core.train_samples")),
    _seconds("core.forward_pass_s", "core.forward_pass"),
    _seconds("core.rebatch_s", "core.rebatch", kind="self"),
    _seconds("core.cache_write_s", "core.cache_write"),
    LayerMetric("core.cache_write_bytes", "bytes", "lower", ("counter", "core.cache_write_bytes")),
    LayerMetric("core.cache_writes", "count", "lower", ("calls", ("core.cache_write",))),
    _seconds("core.cache_read_s", "core.cache_read"),
    LayerMetric("core.cache_read_bytes", "bytes", "lower", ("counter", "core.cache_read_bytes")),
    _seconds("training.evaluate_s", "training.evaluate"),
    LayerMetric("training.evaluate_calls", "count", "lower", ("calls", ("training.evaluate",))),
    _seconds("nn.conv_fwd_s", "nn.conv_fwd"),
    _seconds("nn.conv_bwd_s", "nn.conv_bwd"),
    LayerMetric("nn.conv_calls", "count", "lower", ("calls", ("nn.conv_fwd",))),
    _seconds("nn.im2col_s", "nn.im2col"),
    _seconds("nn.col2im_s", "nn.col2im"),
    _seconds("nn.norm_fwd_s", "nn.norm_fwd"),
    _seconds("nn.norm_bwd_s", "nn.norm_bwd"),
    _seconds("nn.pool_fwd_s", "nn.pool_fwd"),
    _seconds("nn.pool_bwd_s", "nn.pool_bwd"),
    _seconds("nn.act_s", "nn.act"),
    _seconds("nn.linear_s", "nn.linear"),
    _seconds("nn.loss_s", "nn.loss"),
    _seconds("nn.optim_step_s", "nn.optim_step"),
    _seconds("backend.matmul_s", "backend.matmul"),
    LayerMetric("backend.matmul_calls", "count", "lower", ("calls", ("backend.matmul",))),
    LayerMetric("backend.matmul_flops", "flop", "lower", ("counter", "backend.matmul_flops")),
    LayerMetric("backend.cpu_s", "s", "lower", ("parent", "cpu_s")),
    LayerMetric("backend.cpu_per_wall", "ratio", "lower", ("parent", "cpu_per_wall")),
    LayerMetric("backend.mp_wall_s", "s", "lower", ("parent", "mp_wall_s")),
    LayerMetric("backend.mp_processes", "count", "higher", ("parent", "mp_processes")),
    LayerMetric("backend.mp_children_cpu_s", "s", "lower", ("parent", "children_cpu_s")),
    _seconds("hw.sim_charge_s", *_HW_SPANS),
    LayerMetric("hw.sim_charges", "count", "lower", ("calls", _HW_SPANS)),
    LayerMetric("memory.gpu_alloc_calls", "count", "lower", ("calls", ("memory.gpu_alloc",))),
    LayerMetric("memory.host_block_peak_mb", "MiB", "lower", ("parent", "host_block_peak_mb")),
    LayerMetric("memory.sim_peak_mb", "MiB", "lower", ("parent", "sim_peak_mb")),
    LayerMetric("memory.host_over_sim_peak", "ratio", "lower", ("parent", "host_over_sim_peak")),
    _seconds("evalsim.simulate_bp_s", "evalsim.simulate_bp"),
    _seconds("evalsim.simulate_classic_ll_s", "evalsim.simulate_classic_ll"),
    _seconds("evalsim.simulate_neuroflux_s", "evalsim.simulate_neuroflux"),
    LayerMetric("evalsim.sim_steps", "count", "higher", ("traced", "evalsim_sim_steps")),
    _seconds("sweep.expand_s", "sweep.expand"),
    LayerMetric("sweep.cells", "count", "higher", ("traced", "sweep_cells")),
    LayerMetric("sweep.cell_s_p50", "s", "lower", ("traced", "sweep_cell_s_p50")),
    _seconds("sweep.journal_append_s", "sweep.journal_append"),
    LayerMetric("sweep.journal_bytes", "bytes", "lower", ("traced", "journal_bytes")),
    _seconds("serving.workload_gen_s", "serving.workload_gen"),
    LayerMetric("serving.requests_generated", "count", "higher",
                ("items", "serving.workload_gen")),
    _seconds("fleet.route_cache_s", "fleet.route_cache"),
    _seconds("fleet.shard_plan_s", "fleet.shard_plan"),
    _seconds("fleet.sim_run_s", "fleet.sim_run"),
    _seconds("fleet.loop_self_s", "fleet.sim_run", kind="self"),
    LayerMetric("fleet.requests", "count", "higher", ("traced", "requests")),
    LayerMetric("fleet.batches", "count", "lower", ("calls", ("fleet.serve_batch",))),
    _seconds("fleet.router_pick_s", "fleet.router_pick"),
    LayerMetric("fleet.router_picks", "count", "lower", ("calls", ("fleet.router_pick",))),
    _seconds("fleet.serve_batch_s", "fleet.serve_batch"),
    LayerMetric("fleet.requests_per_host_s", "1/s", "higher", ("traced", "requests_per_host_s")),
    _seconds("parallel.placement_s", "parallel.placement"),
    LayerMetric("parallel.placement_evals", "count", "lower",
                ("calls", ("parallel.placement_eval",))),
    LayerMetric("obs.trace_overhead_ratio", "ratio", "lower", ("parent", "trace_overhead_ratio")),
)


def layer_values(summary: dict, counters: dict, traced: dict) -> dict[str, float]:
    """Every span-derived metric of :data:`LAYER_METRICS` (``parent``
    sourced ones are left to ``run.py``), zero where nothing ran."""
    out = {}
    for metric in LAYER_METRICS:
        kind, key = metric.source
        if kind == "parent":
            continue
        if kind == "total":
            value = sum(summary[s]["total_s"] for s in key if s in summary)
        elif kind == "self":
            value = sum(summary[s]["self_s"] for s in key if s in summary)
        elif kind == "calls":
            value = sum(summary[s]["calls"] for s in key if s in summary)
        elif kind == "items":
            value = counters.get(f"{key}.items", 0)
        elif kind == "counter":
            value = counters.get(key, 0)
        else:
            value = traced.get(key, 0)
        out[metric.name] = value
    return out
