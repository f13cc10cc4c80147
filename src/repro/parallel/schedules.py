"""The two cluster schedules behind :meth:`NeuroFlux.train_parallel`.

Both place the run on a :class:`~repro.parallel.cluster.DeviceContext`
and train inside the controller's one run frame
(:meth:`NeuroFlux._run_frame`); they differ only in what happens between
the frame's entry and exit -- the controller's own block loop, or
micro-batches streamed through all blocks by
:class:`~repro.parallel.pipeline.PipelineExecutor` -- and both are
summarised as one :class:`~repro.parallel.pipeline.PipelineStats`.
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.hw.simulator import block_input_mode
from repro.obs.trace import active_tracer
from repro.parallel import placement as _placement
from repro.parallel.cluster import DeviceContext
from repro.parallel.pipeline import PipelineExecutor, PipelineStats
from repro.parallel.report import ParallelReport


def train_parallel(
    system, cluster, epochs, schedule, placement, microbatch, queue_capacity,
    time_budget_s, runtime, callbacks,
) -> ParallelReport:
    """Train ``system`` (a :class:`~repro.core.controller.NeuroFlux`)
    across a simulated device cluster.

    ``schedule="sequential"`` keeps single-device semantics exactly --
    blocks train one after another (each on its placed device), so the
    final weights are bit-identical to :meth:`NeuroFlux.run` with the
    same config and seed; only the time accounting is distributed.
    ``schedule="pipelined"`` streams micro-batches through all blocks
    at once: block ``k`` trains on activations from a still-improving
    block ``k-1`` (strict dataflow order -- upstream weights are one
    update ahead, regardless of ``queue_capacity``, which shapes only
    the timing model), devices overlap, and the report carries
    makespan, per-device utilization and bubble fraction.

    ``placement`` maps each partition block to a device index; when
    ``None`` the pipelined schedule runs the local-search optimizer
    and the sequential schedule puts each block on its fastest
    fitting device; the literal string ``"round-robin"`` selects the
    naive baseline.
    ``microbatch`` defaults to the smallest block batch size (feasible
    for every block by construction).

    ``runtime`` attaches a :class:`repro.runtime.AdaptiveRuntime`: a
    deterministic fault/load schedule is injected into the device
    ledgers while a drift monitor refines the cost model online, and
    (when adaptation is on) blocks migrate live when a device drifts
    or dies.  With an empty schedule the trained weights are
    bit-identical to the same call without a runtime -- the control
    loop changes accounting, never math.  One runtime instance
    drives one run.
    """
    if schedule not in ("sequential", "pipelined"):
        raise ConfigError(f"unknown schedule {schedule!r}")
    if epochs < 1:
        raise ConfigError("epochs must be >= 1")
    plan = system.plan()
    blocks = plan[0]
    if microbatch is None:
        microbatch = min(b.batch_size for b in blocks)
    problem = _placement.build_problem(
        blocks,
        system.specs,
        list(system.aux_heads),
        cluster,
        microbatch,
        n_train=len(system.data.x_train),
        epochs=epochs,
        sample_bytes=system.data.spec.sample_bytes,
        optimizer=system.config.optimizer,
        queue_capacity=queue_capacity,
    )
    placement = _placement.resolve_placement(
        problem, schedule, placement, system._block_residency_bytes
    )
    predicted = _placement.predict_makespan(problem, placement)
    tracer = active_tracer()
    if tracer is not None:
        tracer.instant(
            "placement",
            "runtime-decision",
            "runtime",
            0.0,
            attrs={
                "schedule": schedule,
                "placement": list(placement),
                "predicted_makespan_s": round(predicted, 9),
            },
        )
    ctx = DeviceContext(cluster, placement, runtime)
    if runtime is not None:
        # What one training step of each block is fed: a pipelined block
        # takes micro-batches of its upstream stage's activations, a
        # sequential one its own batch through the loader/cache path.
        if schedule == "sequential":
            step_inputs = [
                (b.batch_size, block_input_mode(b.index, system.config.use_cache))
                for b in blocks
            ]
        else:
            step_inputs = [(microbatch, block_input_mode(b.index)) for b in blocks]
        runtime.bind(
            schedule, problem, ctx, step_inputs, system._block_residency_bytes
        )
    if schedule == "sequential":
        report = system._train_blocks(epochs, time_budget_s, ctx, plan, callbacks)
        # Devices never overlap, so each one's busy time is its ledger
        # total.  No micro-batch stream ran: blocks iterated at their own
        # adaptive batch sizes through the loader/cache path.
        stats = PipelineStats(
            makespan_s=ctx.elapsed,
            device_busy_s=[ledger["total"] for ledger in ctx.device_ledgers()],
            device_active=[d in ctx.ever_hosted for d in range(len(cluster))],
            n_microbatches=0,
            comm_bytes=ctx.comm_bytes,
        )
    else:
        report, stats = _train_pipelined(
            system, ctx, plan, problem, epochs, queue_capacity, time_budget_s,
            callbacks,
        )
    report.result.extras["schedule"] = schedule
    report.result.platform_name = "+".join(
        device.platform.name for device in cluster
    )
    return ParallelReport(
        **vars(report),
        schedule=schedule,
        placement=list(ctx.placement),  # the runtime may have re-placed
        device_names=[device.name for device in cluster],
        makespan_s=stats.makespan_s,
        predicted_makespan_s=predicted,
        device_ledgers=ctx.device_ledgers(),
        utilization=stats.utilization,
        bubble_fraction=stats.bubble_fraction,
        comm_bytes=stats.comm_bytes,
        microbatch=microbatch,
        n_microbatches=stats.n_microbatches,
        runtime=runtime.report() if runtime is not None else None,
    )


def _train_pipelined(
    system, ctx, plan, problem, epochs, queue_capacity, time_budget_s, callbacks
):
    """Pipelined schedule: all blocks resident and training at once."""
    runtime = ctx.runtime
    with system._run_frame(
        epochs, "neuroflux-pipelined", plan, problem.microbatch, ctx
    ) as (report, history, _):
        workers = []
        for block in plan[0]:
            ctx.alloc_block(block.index, problem.costs[block.index].residency_bytes)
            workers.append(
                system._build_worker(block, ctx.sim_for_block(block.index))
            )
        start_offsets = [0.0] * len(ctx.cluster)
        start_offsets[ctx.placement[0]] = report.profiling_time_s
        executor = PipelineExecutor(
            ctx.cluster,
            ctx.placement,
            workers,
            system.data.x_train,
            system.data.y_train,
            problem.microbatch,
            seed=system.config.seed,
            queue_capacity=queue_capacity,
            start_offsets=start_offsets,
            # The history recorder enriches on_epoch_end metrics with
            # the accuracy user callbacks read.
            callbacks=system._subscribers(runtime, callbacks, history),
            runtime=runtime,
        )
        stats = executor.run(epochs, time_budget_s)
        report.result.sim_time_s = stats.makespan_s
    return report, stats
