"""NeuroFlux Controller: end-to-end orchestration (Figure 7).

Wires the modules together: build auxiliary heads (AAN rule), profile
per-layer memory, partition into blocks with per-block batch sizes
(Algorithm 1), then train block after block (Algorithm 2) with only the
active block resident in simulated GPU memory, caching the final
activations of each block to storage so trained blocks never run forward
again.  Finishes by selecting the best early-exit model.

The controller is plan + one run frame + one block loop + exit
selection.  Every schedule -- the block loop here, the pipelined
executor (:mod:`repro.parallel.schedules`) and the forked stages
(:mod:`repro.backend.multiproc`) -- trains inside
:meth:`NeuroFlux._run_frame`, and every device question goes through one
:class:`~repro.parallel.cluster.DeviceContext`: :meth:`NeuroFlux.run` is
simply a cluster of one.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import NamedTuple

import numpy as np

from repro.api.callbacks import Callback, CallbackList, as_callback_list
from repro.core.auxiliary import build_aux_heads
from repro.core.cache import ActivationStore
from repro.core.config import NeuroFluxConfig
from repro.core.early_exit import (
    EXIT_TOLERANCE,
    EarlyExitModel,
    ExitCandidate,
    MultiExitModel,
    exit_model_parameters,
    select_exit,
)
from repro.core.partitioner import Block, partition, validate_partition
from repro.core.prefetcher import rebatch
from repro.core.profiler import MemoryProfiler, block_residency_bytes
from repro.core.report import BlockReport, NeuroFluxReport
from repro.core.worker import BlockWorker
from repro.data.datasets import SyntheticImageDataset
from repro.data.loader import DataLoader
from repro.errors import ConfigError
from repro.hw.platforms import AGX_ORIN, Platform
from repro.hw.simulator import ExecutionSimulator, TimeLedger, block_input_mode
from repro.models.base import ConvNet
from repro.nn import make_optimizer
from repro.obs.trace import active_tracer
from repro.parallel.cluster import Cluster, Device, DeviceContext
from repro.training.common import HistoryPoint, TrainResult, evaluate_classifier
from repro.utils.rng import spawn_rng

#: Validation rows the training history evaluates each point on.
EVAL_SUBSET = 512


def _eval_forward(spec, feats: np.ndarray, chunk: int) -> np.ndarray:
    """Eval-mode forward of one stage, ``chunk`` rows at a time: the
    batch the device trains at, so evaluation never asks the stage's
    workspace for more than a training step does (eval-mode layers are
    per-sample, so the rows are the one-batch result's, bit for bit)."""
    spec.module.eval()
    feats = np.concatenate(
        [
            spec.module.forward(feats[start : start + chunk])
            for start in range(0, len(feats), chunk)
        ]
    )
    spec.module.train()
    return feats


class _HistoryRecorder(Callback):
    """Best exit accuracy so far on the capped validation subset.

    The one history recorder of every schedule.  The block loop calls
    :meth:`record` after each block epoch with the active block's layers
    and :meth:`advance` once the block is done, so later points only
    forward the remaining blocks (cheap, uncharged).  The pipelined
    executor reaches it as an ``on_epoch_end`` subscriber: all blocks
    are still training, so each point forwards the whole chain, and the
    shared ``metrics`` dict is enriched in place so callbacks later in
    the list observe ``accuracy`` too.  Either way the subset is
    evaluated ``chunk`` rows at a time -- the batch those layers train
    at (the block's own, or the pipeline's micro-batch).
    """

    def __init__(self, system: "NeuroFlux", result: TrainResult):
        n_eval = min(EVAL_SUBSET, len(system.data.x_val))
        self.system = system
        self.result = result
        self.feats = system.data.x_val[:n_eval]
        self.labels = system.data.y_val[:n_eval]
        self.best_acc = 0.0

    def record(
        self, time_s: float, epoch: int, loss: float, specs, chunk: int
    ) -> float:
        feats = self.feats
        for spec in specs:
            feats = _eval_forward(spec, feats, chunk)
            acc = self.system._exit_accuracy(feats, self.labels, spec.index, chunk)
            self.best_acc = max(self.best_acc, acc)
        self.result.history.append(
            HistoryPoint(time_s, epoch + 1, self.best_acc, loss, "val")
        )
        return self.best_acc

    def advance(self, specs, chunk: int) -> None:
        for spec in specs:
            self.feats = _eval_forward(spec, self.feats, chunk)

    def on_epoch_end(self, epoch: int, time_s: float, metrics: dict) -> None:
        # Only the pipelined frame subscribes; its batch size is the
        # micro-batch every block trains at.
        metrics["accuracy"] = self.record(
            time_s,
            epoch,
            metrics.get("loss", float("nan")),
            self.system.specs,
            self.result.batch_size,
        )


class _RunFrame(NamedTuple):
    """What a schedule holds while inside :meth:`NeuroFlux._run_frame`."""

    report: NeuroFluxReport
    history: _HistoryRecorder
    store: ActivationStore | None


class NeuroFlux:
    """The NeuroFlux training system (paper Section 4, Figure 7).

    Inputs mirror the paper's step 0: an untrained CNN, a training set, a
    GPU memory budget and a batch-size limit (the latter via ``config``).
    """

    def __init__(
        self,
        model: ConvNet,
        data: SyntheticImageDataset,
        memory_budget: int,
        platform: Platform = AGX_ORIN,
        config: NeuroFluxConfig | None = None,
    ):
        if memory_budget <= 0:
            raise ConfigError("memory budget must be positive")
        self.model = model
        self.data = data
        self.memory_budget = int(memory_budget)
        self.platform = platform
        self.config = config if config is not None else NeuroFluxConfig()
        self.aux_heads = build_aux_heads(
            model,
            rule=self.config.aux_rule,
            classic_filters=self.config.classic_filters,
            seed=self.config.seed,
        )
        self.specs = model.local_layers()

    # -- planning (steps 1-2) ----------------------------------------------
    def plan(self) -> tuple[list[Block], float]:
        """Profile and partition; returns blocks and profiling FLOPs."""
        profiler = MemoryProfiler(
            self.specs,
            list(self.aux_heads),
            optimizer=self.config.optimizer,
            sample_batches=self.config.sample_batches,
        )
        profile = profiler.profile()
        blocks = partition(
            profile.models,
            self.memory_budget,
            self.config.batch_limit,
            rho=self.config.rho,
        )
        validate_partition(blocks, len(self.specs))
        if not self.config.adaptive_batch:
            # Ablation: a single global batch (what AAN-LL alone would use).
            global_batch = min(b.batch_size for b in blocks)
            for b in blocks:
                b.batch_size = global_batch
        return blocks, profile.profiling_flops

    # -- private helpers -----------------------------------------------------
    def _raw_batches(self, block: Block, epoch_rng: np.random.Generator) -> DataLoader:
        data = self.data
        return DataLoader(
            data.x_train, data.y_train, block.batch_size, shuffle=True, rng=epoch_rng
        )

    def _block_input_batches(
        self,
        block: Block,
        store: ActivationStore,
        ctx: DeviceContext,
        epoch_rng: np.random.Generator,
    ):
        """Iterator over this block's training inputs at its batch size.

        Charges are resolved through ``ctx.sim_for_block`` at read time,
        so a block migrated mid-pass charges its new device, not a ghost.
        """
        if block.index == 0:
            yield from self._raw_batches(block, epoch_rng)
        elif self.config.use_cache:
            def charged():
                for x, y in store.batches(block.index - 1):
                    ctx.sim_for_block(block.index).add_cache_read(
                        x.nbytes + y.nbytes, n_files=1
                    )
                    yield x, y

            yield from rebatch(charged(), block.batch_size)
        else:
            # Ablation: no cache -- re-run forward passes over every
            # already-trained block for each batch (the redundancy the
            # paper's caching eliminates).
            from repro.flops.count import module_forward_flops

            prior_specs = self.specs[: block.first_layer]
            prior_flops = sum(
                module_forward_flops(s.module, (1, s.in_channels, *s.in_hw))[0]
                for s in prior_specs
            )
            for x, y in self._raw_batches(block, epoch_rng):
                for s in prior_specs:
                    s.module.eval()
                    x = s.module.forward(x)
                ctx.sim_for_block(block.index).add_inference_batch(
                    prior_flops * len(x), self.data.spec.sample_bytes * len(x), len(prior_specs)
                )
                yield x, y

    def _release_workspaces(self, units=None) -> None:
        """Drop the scratch workspaces of ``units`` (default: of every
        layer and head), and with them every host byte they hold."""
        for unit in (self.model, *self.aux_heads) if units is None else units:
            unit.detach_workspace()

    def _charge_profiling(
        self,
        profiling_flops: float,
        psim: ExecutionSimulator | None,
        ledger: TimeLedger,
    ) -> float:
        """Book the §6.4 profiling overhead: on the device that profiled,
        or -- for a schedule with no device in this process (the forked
        stages own theirs) -- straight on the run's ``ledger``."""
        platform = psim.platform if psim is not None else self.platform
        seconds = (
            profiling_flops / platform.effective_flops
            + len(self.specs) * platform.kernel_launch_overhead
        )
        if psim is not None:
            return psim.add_profiling(seconds)
        ledger.profiling += seconds
        return seconds

    def _build_worker(
        self, block: Block, sim: ExecutionSimulator, pools: tuple[dict, dict] | None = None
    ) -> BlockWorker:
        """The block's trainer: one optimizer per member unit, one device
        and -- the host twin of ``ctx.alloc_block`` -- scratch workspaces
        on exactly the units it trains.  They stay resident until
        :meth:`_release_workspaces`: as long as the block trains in the
        block loop, for the run where blocks train concurrently.

        Units train one at a time, so the block's layers share one
        workspace pool and its heads another, and the host holds each
        slot at its worst unit, as ``block_residency_bytes`` charges.  A
        layer and its own head never share: the layer's ``cols`` must
        survive the head's forward and backward.  ``pools`` -- a
        ``(layer_pool, head_pool)`` pair -- widens the sharing to every
        block built with it: a multiprocess stage's blocks interleave per
        micro-batch but never run at the same time, so the stage holds one
        arena, not one per block."""
        cfg = self.config
        optimizers = [
            make_optimizer(
                cfg.optimizer,
                self.specs[i].module.parameters()
                + self.aux_heads[i].parameters(),
                lr=cfg.lr,
            )
            for i in block.layer_indices
        ]
        worker = BlockWorker(
            [self.specs[i] for i in block.layer_indices],
            [self.aux_heads[i] for i in block.layer_indices],
            optimizers,
            sim,
            sample_bytes=self.data.spec.sample_bytes,
        )
        layer_pool, head_pool = pools if pools is not None else ({}, {})
        for spec, aux in zip(worker.layer_specs, worker.aux_heads):
            spec.module.attach_workspace(layer_pool)
            aux.attach_workspace(head_pool)
        return worker

    def _block_residency_bytes(self, block: Block, batch_size: int | None = None) -> int:
        """Peak working set of training this block (worst member layer) at
        ``batch_size`` (default: the block's own adaptive batch)."""
        return block_residency_bytes(
            self.specs,
            list(self.aux_heads),
            block.layer_indices,
            block.batch_size if batch_size is None else batch_size,
            self.config.optimizer,
        )

    def _exit_accuracy(
        self, feats: np.ndarray, y: np.ndarray, layer_index: int, chunk: int
    ) -> float:
        aux = self.aux_heads[layer_index]
        aux.eval()
        acc = evaluate_classifier(aux.forward, feats, y, batch_size=chunk)
        aux.train()
        return acc

    # -- the run frame every schedule trains inside ---------------------------
    @staticmethod
    def _subscribers(runtime, callbacks, *internal: Callback) -> CallbackList:
        """One run's callback list: the adaptive runtime first (it may
        migrate blocks, and later callbacks should observe post-migration
        state), then ``internal`` subscribers, then user callbacks.  A
        fresh list every run: prepending into a caller-owned CallbackList
        would leak this run's bound runtime into the caller's next run."""
        cbs = CallbackList(
            ([runtime] if runtime is not None else [])
            + list(internal)
            + list(as_callback_list(callbacks))
        )
        if runtime is not None:
            runtime.callbacks = cbs
        return cbs

    @contextmanager
    def _run_frame(
        self,
        epochs: int,
        method: str,
        plan: tuple[list[Block], float],
        batch_size: int,
        ctx: DeviceContext | None = None,
        sequential: bool = False,
    ):
        """Everything around the training itself, once for all schedules.

        Takes a finished :meth:`plan` (a budget that cannot be partitioned
        fails before anything is acquired), books profiling, builds the
        report and history recorder, yields a :class:`_RunFrame` to train
        inside, then reads the device ledgers; the one ``finally``
        releases whatever was acquired -- the workspaces of every worker
        the schedule built included -- on every path, and the exit is
        selected on the released system.
        ``ctx`` is absent only for the multiprocess schedule (its devices
        live in the forked stages).  ``sequential`` marks the
        block-at-a-time schedule: blocks hand
        activations through an :class:`ActivationStore`, and the device
        ledgers *are* the timeline, so their charges go to the active
        tracer (the other schedules emit their own spans).
        """
        if epochs < 1:
            raise ConfigError("epochs must be >= 1")
        blocks, profiling_flops = plan
        tracer = active_tracer() if sequential else None
        store = ActivationStore(self.config.cache_dir) if sequential else None
        try:
            if tracer is not None:
                ctx.attach_tracer(tracer)
            result = TrainResult(
                method=method,
                model_name=self.model.name,
                dataset_name=self.data.spec.name,
                platform_name=self.platform.name,
                epochs=epochs,
                batch_size=batch_size,
                num_parameters=self.model.num_parameters(),
            )
            report = NeuroFluxReport(
                result=result,
                blocks=blocks,
                full_model_params=self.model.num_parameters(),
                dataset_bytes=self.data.spec.train_bytes,
            )
            report.profiling_time_s = self._charge_profiling(
                profiling_flops,
                ctx.profiling_sim if ctx is not None else None,
                result.ledger,
            )
            yield _RunFrame(report, _HistoryRecorder(self, result), store)
            if ctx is not None:
                result.ledger = ctx.merged_ledger()
                result.peak_memory_bytes = ctx.peak_memory
            if store is not None:
                report.cache_bytes_written = store.bytes_written
        finally:
            self._release_workspaces()
            if ctx is not None:
                ctx.release()
                if tracer is not None:
                    # The cluster's simulators outlive the run: never
                    # leak spans into a later one.
                    ctx.detach_tracer()
            if store is not None:
                store.close()
        # Exit selection needs none of the run's resources.
        self._finalize_exits(report)

    # -- the whole pipeline (steps 0-4) ---------------------------------------
    def run(
        self,
        epochs: int,
        time_budget_s: float | None = None,
        callbacks: Callback | list[Callback] | None = None,
    ) -> NeuroFluxReport:
        """Train on this system's one device: a cluster of one, every
        block placed on device 0."""
        plan = self.plan()
        cluster = Cluster([Device(self.platform, self.memory_budget)])
        ctx = DeviceContext(cluster, [0] * len(plan[0]))
        return self._train_blocks(epochs, time_budget_s, ctx, plan, callbacks)

    def train_multiprocess(
        self,
        epochs: int,
        processes: int | None = None,
        microbatch: int | None = None,
    ) -> NeuroFluxReport:
        """Real wall-clock block parallelism: stages of blocks train
        concurrently in forked worker processes with shared-memory
        activation handoff (local learning makes blocks
        gradient-independent, so this is the PR 3 pipelined schedule
        running on actual cores).  See :mod:`repro.backend.multiproc`.

        ``processes`` defaults to one per core (capped at the block
        count).  Wall-clock figures land in ``report.result.extras``.
        """
        from repro.backend.multiproc import run_block_parallel

        return run_block_parallel(
            self, epochs, processes=processes, microbatch=microbatch
        )

    def train_parallel(
        self,
        cluster,
        epochs: int,
        schedule: str = "pipelined",
        placement: list[int] | str | None = None,
        microbatch: int | None = None,
        queue_capacity: int = 2,
        time_budget_s: float | None = None,
        runtime=None,
        callbacks: Callback | list[Callback] | None = None,
    ):
        """Train this system across a simulated device cluster, blocks
        one after another (``schedule="sequential"``: weights bit-identical
        to :meth:`run`, only the accounting is distributed) or streamed as
        a micro-batch pipeline.  Returns a
        :class:`~repro.parallel.report.ParallelReport`; every argument is
        documented on :func:`repro.parallel.schedules.train_parallel`.
        """
        from repro.parallel.schedules import train_parallel

        return train_parallel(
            self, cluster, epochs, schedule, placement, microbatch,
            queue_capacity, time_budget_s, runtime, callbacks,
        )

    def _train_blocks(
        self,
        epochs: int,
        time_budget_s: float | None,
        ctx: DeviceContext,
        plan: tuple[list[Block], float],
        callbacks: Callback | list[Callback] | None = None,
    ) -> NeuroFluxReport:
        """Algorithm 2: train block after block, each on its placed device.

        ``callbacks`` receive the unified :mod:`repro.api.callbacks`
        hooks; an adaptive runtime attached to ``ctx`` subscribes through
        the same list (first, so user callbacks observe post-migration
        state).
        """
        cfg = self.config
        blocks = plan[0]
        batch_size = max(b.batch_size for b in blocks)
        with self._run_frame(
            epochs, "neuroflux", plan, batch_size, ctx, sequential=True
        ) as (report, history, store):
            runtime = ctx.runtime
            cbs = self._subscribers(runtime, callbacks)
            for block in blocks:
                sim = ctx.sim_for_block(block.index)
                # §3.1: load the block into GPU memory, others to storage.
                block_specs = [self.specs[i] for i in block.layer_indices]
                block_aux = [self.aux_heads[i] for i in block.layer_indices]
                block_param_bytes = sum(
                    s.module.parameter_bytes() for s in block_specs
                ) + sum(a.parameter_bytes() for a in block_aux)
                sim.charge(
                    "overhead",
                    sim.storage_time(block_param_bytes, n_ops=1),
                    span="cache_io",
                    name=f"load-block{block.index}",
                )
                ctx.alloc_block(block.index, self._block_residency_bytes(block))
                worker = self._build_worker(block, sim)
                input_mode = block_input_mode(block.index, cfg.use_cache)
                if runtime is not None:
                    runtime.bind_live({block.index: worker})

                block_t0 = ctx.elapsed
                mean_loss = float("nan")
                stop = False
                for epoch in range(epochs):
                    epoch_rng = spawn_rng(cfg.seed, f"nf/block{block.index}/epoch{epoch}")
                    batches = self._block_input_batches(block, store, ctx, epoch_rng)
                    # The worker budget-checks against its own device clock;
                    # discount whatever the other devices already spent.
                    # With a runtime attached the block may migrate to a
                    # different clock mid-pass, invalidating that deadline,
                    # so the budget falls back to the end-of-epoch check
                    # against the global clock below.
                    pass_budget = None
                    if time_budget_s is not None and runtime is None:
                        pass_budget = time_budget_s - (ctx.elapsed - sim.elapsed)
                    _, _, mean_loss = worker.train_pass(
                        batches,
                        time_budget_s=pass_budget,
                        input_mode=input_mode,
                        callbacks=cbs if cbs else None,
                        block_index=block.index,
                    )
                    # The runtime may have migrated the block mid-pass
                    # (device failure): charge all follow-up work on the
                    # device that actually hosts it now.
                    sim = ctx.sim_for_block(block.index)
                    best_acc = history.record(
                        ctx.elapsed, epoch, mean_loss, block_specs, block.batch_size
                    )
                    cbs.on_epoch_end(
                        epoch,
                        ctx.elapsed,
                        {
                            "accuracy": best_acc,
                            "loss": mean_loss,
                            "block": block.index,
                        },
                    )
                    if time_budget_s is not None and ctx.elapsed >= time_budget_s:
                        stop = True
                        break

                # §3.3: cache the trained block's outputs for the next block.
                is_last = block.index == len(blocks) - 1
                cache_bytes_before = store.bytes_written
                if cfg.use_cache and not is_last and not stop:
                    def save(x: np.ndarray, y: np.ndarray) -> None:
                        nbytes = store.write(block.index, x, y)
                        sim.add_cache_write(nbytes, n_files=1)
                        ctx.handoff(block.index, block.index + 1, x.nbytes + y.nbytes)

                    epoch_rng = spawn_rng(cfg.seed, f"nf/block{block.index}/cachepass")
                    worker.forward_pass(
                        self._block_input_batches(block, store, ctx, epoch_rng),
                        save,
                    )
                if block.index > 0 and cfg.use_cache:
                    store.clear_block(block.index - 1)

                history.advance(block_specs, block.batch_size)
                ctx.free_block(block.index)
                # Nothing of this block stays resident on the host either.
                self._release_workspaces(worker.units)

                report.block_reports.append(
                    BlockReport(
                        index=block.index,
                        layer_indices=list(block.layer_indices),
                        batch_size=block.batch_size,
                        sim_time_s=ctx.elapsed - block_t0,
                        cache_bytes=store.bytes_written - cache_bytes_before,
                        mean_loss=mean_loss,
                    )
                )
                cbs.on_block_trained(report.block_reports[-1])
                if stop:
                    break
            report.result.sim_time_s = ctx.elapsed
        return report

    def _finalize_exits(self, report: NeuroFluxReport) -> None:
        """§4: evaluate every layer as an exit point on the full val set
        and select the output model.

        The sets are streamed through the stage chain at the plan's
        smallest block batch -- one every block fits its budget at -- so
        no layer ever sees (and the host never holds) a full-set
        activation; only the heads' logits are collected.
        """
        chunk = min(b.batch_size for b in report.blocks)
        x, y = self.data.x_val, self.data.y_val
        for spec, aux in zip(self.specs, self.aux_heads):
            spec.module.eval()
            aux.eval()
        logits = [[] for _ in self.specs]
        for start in range(0, len(x), chunk):
            feats = x[start : start + chunk]
            for spec, aux, rows in zip(self.specs, self.aux_heads, logits):
                feats = spec.module.forward(feats)
                rows.append(aux.forward(feats))
        for aux in self.aux_heads:
            aux.train()
        candidates = []
        for spec, aux, rows in zip(self.specs, self.aux_heads, logits):
            acc = evaluate_classifier(lambda z: z, np.concatenate(rows), y)
            stages = [s.module for s in self.specs[: spec.index + 1]]
            candidates.append(
                ExitCandidate(
                    layer_index=spec.index,
                    val_accuracy=acc,
                    num_parameters=exit_model_parameters(stages, aux),
                )
            )
        report.layer_val_accuracies = [c.val_accuracy for c in candidates]
        chosen = select_exit(candidates, tolerance=EXIT_TOLERANCE)
        report.exit_layer = chosen.layer_index
        report.exit_params = chosen.num_parameters
        report.exit_val_accuracy = chosen.val_accuracy

        exit_model = self.build_exit_model(chosen.layer_index)
        report.exit_test_accuracy = evaluate_classifier(
            exit_model.forward, self.data.x_test, self.data.y_test, batch_size=chunk
        )
        report.result.final_accuracy = report.exit_test_accuracy

    def build_exit_model(self, exit_layer: int) -> EarlyExitModel:
        """Assemble the deployable early-exit model for a given layer."""
        stages = [s.module for s in self.specs[: exit_layer + 1]]
        return EarlyExitModel(
            stages, self.aux_heads[exit_layer], exit_layer, name=f"{self.model.name}-exit{exit_layer + 1}"
        )

    def build_multi_exit_model(
        self, exit_layers: list[int] | None = None
    ) -> MultiExitModel:
        """Assemble a cascade-ready model from the trained auxiliary heads.

        ``exit_layers`` selects which layers serve as confidence-gated
        exits (increasing indices); ``None`` materializes every trained
        layer as an exit.  The stage chain only extends to the deepest
        requested exit, so a shallow cascade stays compact.
        """
        if exit_layers is None:
            exit_layers = [s.index for s in self.specs]
        if not exit_layers:
            raise ConfigError("need at least one exit layer")
        for i in exit_layers:
            if not 0 <= i < len(self.specs):
                raise ConfigError(f"exit layer {i} out of range")
        stages = [s.module for s in self.specs[: exit_layers[-1] + 1]]
        heads = [self.aux_heads[i] for i in exit_layers]
        return MultiExitModel(
            stages,
            list(exit_layers),
            heads,
            name=f"{self.model.name}-cascade{len(exit_layers)}",
        )
