"""The adaptive cluster runtime: NeuroFlux's control loop under churn.

``AdaptiveRuntime`` sits beside a running :meth:`NeuroFlux.train_parallel`
job and keeps it healthy as the cluster changes:

* a deterministic :class:`~repro.runtime.events.EventSchedule` injects
  slowdowns, load spikes, failures and joins into the device ledgers
  (through the simulator's ``time_scale`` perturbation hook);
* a :class:`~repro.runtime.monitor.DriftMonitor` compares every observed
  step against the placement cost model and refines per-device
  coefficients online (perf4sight-style);
* a :class:`~repro.runtime.policy.ReplacementPolicy` re-runs the local
  search with the refined coefficients when drift crosses the threshold
  or a device dies, weighing predicted savings against migration cost;
* :mod:`~repro.runtime.migrate` moves blocks live -- checkpoint, ship,
  restore -- and, after a failure, replays the micro-batches that died
  with the device from the last periodic checkpoint.

Everything the runtime does changes *accounting only*: weights follow
the same dataflow order whether or not blocks move, which is what the
empty-schedule bit-identity regression pins down.  With ``adapt=False``
the runtime becomes the fault-injection-only "static" arm used by the
benchmark: events still land, but nothing moves -- and a failure that
strands live state raises :class:`~repro.errors.FaultError`.

One instance drives one run; construct a fresh runtime per run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.api.callbacks import BatchInfo, Callback
from repro.errors import ConfigError, FaultError, PlacementError
from repro.hw.platforms import get_platform
from repro.obs.trace import active_tracer
from repro.parallel.cluster import Device
from repro.parallel.placement import price_training_step
from repro.runtime.events import (
    DeviceFailure,
    DeviceJoin,
    DeviceSlowdown,
    EventSchedule,
    LoadSpike,
    SchedulePlayer,
)
from repro.runtime.migrate import (
    CheckpointStore,
    MigrationRecord,
    failure_recovery,
    planned_migration,
    snapshot_worker,
)
from repro.training.checkpointing import serialize_checkpoint
from repro.runtime.monitor import DriftMonitor
from repro.runtime.policy import ReplacementPolicy


@dataclass
class RuntimeReport:
    """What one adaptive run did: events, refinement, moves, recovery."""

    adapt: bool
    initial_placement: list[int] = field(default_factory=list)
    final_placement: list[int] = field(default_factory=list)
    #: Every placement the run went through (initial first).  A healthy
    #: run never revisits an entry: re-visiting would mean the policy is
    #: oscillating between placements instead of converging.
    placement_history: list[list[int]] = field(default_factory=list)
    events_applied: list[dict] = field(default_factory=list)
    migrations: list[MigrationRecord] = field(default_factory=list)
    n_replacements: int = 0
    coefficients: list[float] = field(default_factory=list)
    failed_devices: list[int] = field(default_factory=list)
    joined_devices: list[int] = field(default_factory=list)
    checkpoint_time_s: float = 0.0

    @property
    def recovery_time_s(self) -> float:
        """Seconds of failure recovery (restore + replay) on the ledgers."""
        return sum(m.recovery_s for m in self.migrations if m.reason == "failure")

    @property
    def migration_transfer_s(self) -> float:
        """Seconds of planned-migration transfers on the ledgers."""
        return sum(m.transfer_s for m in self.migrations if m.reason == "drift")

    def to_json_dict(self) -> dict:
        return {
            "adapt": self.adapt,
            "initial_placement": list(self.initial_placement),
            "final_placement": list(self.final_placement),
            "placement_history": [list(p) for p in self.placement_history],
            "events_applied": list(self.events_applied),
            "migrations": [m.to_json_dict() for m in self.migrations],
            "n_replacements": self.n_replacements,
            "coefficients": [round(c, 4) for c in self.coefficients],
            "failed_devices": list(self.failed_devices),
            "joined_devices": list(self.joined_devices),
            "checkpoint_time_s": round(self.checkpoint_time_s, 6),
            "recovery_time_s": round(self.recovery_time_s, 6),
            "migration_transfer_s": round(self.migration_transfer_s, 6),
        }

    def summary(self) -> str:
        lines = [
            f"runtime: adapt={'on' if self.adapt else 'off'} "
            f"events={len(self.events_applied)} "
            f"replacements={self.n_replacements} "
            f"migrations={len(self.migrations)}",
        ]
        if self.initial_placement != self.final_placement:
            lines.append(
                f"  placement: {self.initial_placement} -> {self.final_placement}"
            )
        if self.failed_devices:
            lines.append(
                f"  failed devices: {self.failed_devices} "
                f"(recovery {self.recovery_time_s * 1e3:.1f} ms)"
            )
        if self.joined_devices:
            lines.append(f"  joined devices: {self.joined_devices}")
        return "\n".join(lines)


class AdaptiveRuntime(Callback):
    """Adaptive control loop for one cluster training run.

    The runtime is a :class:`repro.api.callbacks.Callback`: the
    controller and pipeline executor emit every trained batch through the
    unified callback list, and the runtime subscribes to ``on_batch``
    like any other observer (it is placed first so later callbacks see
    post-migration state).  In the other direction it *emits* through
    the same list: injected fault/load events surface as ``on_event``
    and block moves as ``on_migration`` to every other subscriber.

    Constructor knobs:

    * ``events`` -- the fault/load schedule to inject (``None`` = calm);
    * ``adapt`` -- ``False`` injects events but never re-places (the
      benchmark's static arm; a failure with live state then raises
      :class:`FaultError`);
    * ``drift_threshold`` / ``ewma_alpha`` / ``min_samples`` -- monitor;
    * ``check_every`` -- micro-batches between policy consultations;
    * ``stability_tol`` -- re-placement waits until every refined
      coefficient has settled (changed less than this fraction since the
      previous check): acting on a half-converged EWMA would optimize
      against a cost model that is still moving, then "correct" the move
      a moment later -- exactly the oscillation hysteresis exists to
      prevent;
    * ``checkpoint_every`` -- micro-batches between periodic block
      checkpoints (the fault-tolerance overhead; what failure recovery
      replays from);
    * ``improvement_margin`` / ``migration_safety`` / ``cooldown_s`` --
      re-placement hysteresis (see :class:`ReplacementPolicy`);
    * ``idle_decay`` -- per-consultation relaxation of *idle* device
      coefficients toward ``1.0`` (see
      :meth:`DriftMonitor.decay_toward_unit`): a vacated device stops
      producing observations, so without decay an expired load spike
      would blacklist it forever.  ``0.0`` disables the decay.
    """

    def __init__(
        self,
        events: EventSchedule | None = None,
        adapt: bool = True,
        drift_threshold: float = 0.25,
        ewma_alpha: float = 0.6,
        min_samples: int = 2,
        check_every: int = 1,
        checkpoint_every: int = 4,
        improvement_margin: float = 0.05,
        migration_safety: float = 1.0,
        cooldown_s: float = 0.0,
        stability_tol: float = 0.15,
        idle_decay: float = 0.25,
    ):
        if check_every < 1:
            raise ConfigError("check_every must be >= 1")
        if checkpoint_every < 1:
            raise ConfigError("checkpoint_every must be >= 1")
        if stability_tol < 0:
            raise ConfigError("stability_tol must be non-negative")
        if not 0 <= idle_decay <= 1:
            raise ConfigError("idle_decay must be in [0, 1]")
        self.schedule = events if events is not None else EventSchedule()
        self.adapt = bool(adapt)
        self.check_every = int(check_every)
        self.checkpoint_every = int(checkpoint_every)
        self._monitor_args = dict(
            alpha=ewma_alpha,
            drift_threshold=drift_threshold,
            min_samples=min_samples,
        )
        self.policy = ReplacementPolicy(
            improvement_margin=improvement_margin,
            migration_safety=migration_safety,
            cooldown_s=cooldown_s,
        )
        self.store = CheckpointStore()
        self.monitor: DriftMonitor | None = None
        self.idle_decay = float(idle_decay)
        #: Outbound hook sink: the callback list of the driving run
        #: (set by the controller when it assembles the list).  Injected
        #: events and block moves are emitted through it as
        #: ``on_event`` / ``on_migration``.
        self.callbacks: Callback = Callback()
        # -- run state --
        self._mode: str | None = None
        self._player = SchedulePlayer(None)
        self._joined: list[int] = []
        self._events_applied: list[dict] = []
        self.migrations: list[MigrationRecord] = []
        self._n_replacements = 0
        self._last_replacement_s: float | None = None
        self._checkpoint_time_s = 0.0
        self._initial_placement: list[int] = []
        self._m = 0  # micro-batches completed (pipelined) / batches (sequential)
        self._base_step_cache: dict[tuple[int, int], float] = {}
        self.stability_tol = float(stability_tol)
        self._coeffs_at_last_check: list[float] | None = None
        self._coeffs_at_last_decision: list[float] | None = None
        self._placement_history: list[list[int]] = []
        self._wire_nbytes: dict[int, int] = {}

    # ------------------------------------------------------------------ #
    # binding                                                            #
    # ------------------------------------------------------------------ #
    def _bind_common(self, mode: str, problem, blocks, ctx) -> None:
        if self._mode is not None:
            raise ConfigError(
                "an AdaptiveRuntime instance drives exactly one run; "
                "construct a fresh one"
            )
        self._mode = mode
        #: The run's :class:`~repro.parallel.cluster.DeviceContext`:
        #: block residency moves and joined devices go through it.
        self.ctx = ctx
        self.cluster = cluster = ctx.cluster
        self.problem = problem
        self.blocks = blocks
        self.placement: list[int] = ctx.placement  # shared list: updates are live
        self._initial_placement = list(self.placement)
        self._placement_history = [list(self.placement)]
        self.monitor = DriftMonitor(len(cluster), **self._monitor_args)
        # Fail fast on a schedule the cluster can never satisfy, instead
        # of erroring mid-run with the training paid for: a targeted
        # device must exist by the time the event fires -- present now,
        # or added by a join scheduled at an earlier time (the schedule
        # iterates in time order).
        available = len(cluster)
        for event in self.schedule:
            if isinstance(event, DeviceJoin):
                available += 1
            elif event.device >= available:
                raise ConfigError(
                    f"event at t={event.time_s} targets device "
                    f"{event.device}, but only {available} devices exist "
                    "by then (cluster + earlier joins)"
                )
        self._player = SchedulePlayer(self.schedule)

    def bind_pipeline(self, problem, blocks, workers, ctx) -> None:
        """Attach to a pipelined run (called by the schedule)."""
        self._bind_common("pipelined", problem, blocks, ctx)
        self.workers = workers
        self.clock = None

    def start_pipeline(self, clock) -> None:
        """Attach to the live executor's clock (called by the executor)."""
        if self._mode != "pipelined":
            raise ConfigError("runtime was not bound to a pipelined run")
        self.clock = clock
        if self.adapt:
            # Baseline checkpoints: a failure before the first periodic
            # checkpoint must still have something to recover from.
            for k in range(len(self.workers)):
                self._checkpoint_pipelined(k, now=clock.makespan)

    def bind_sequential(self, problem, blocks, ctx, residency_fn) -> None:
        """Attach to a sequential (block-after-block) cluster run."""
        self._bind_common("sequential", problem, blocks, ctx)
        self.residency_fn = residency_fn
        self._cur_block = None
        self._cur_worker = None
        self._cur_input_mode = "prefetch-raw"
        self._cur_batches = 0

    # ------------------------------------------------------------------ #
    # unified callback protocol (both modes)                             #
    # ------------------------------------------------------------------ #
    def on_batch(self, info: BatchInfo) -> None:
        """The runtime's inbound hook on the unified callback protocol.

        The controller (sequential) and pipeline executor (stage scope)
        emit every trained batch through one callback list; this
        dispatches to the mode's observation/consultation logic.  In the
        pipelined schedule the final stage of each micro-batch doubles
        as the end-of-micro-batch consultation point.
        """
        if self._mode == "pipelined":
            self.on_stage_step(info.block_index, info.step_s, info.n_samples)
            if info.last_stage:
                self.after_microbatch()
        elif self._mode == "sequential":
            self.sequential_on_batch(info.n_done, info.step_s, info.n_samples)
        else:
            raise ConfigError("runtime observed a batch before being bound")

    def _decay_idle_coefficients(self) -> None:
        """Relax coefficients of alive devices hosting no blocks.

        Such devices produce no observations, so their refined
        coefficients would otherwise freeze -- an expired load spike
        would blacklist a vacated device forever.
        """
        if self.idle_decay <= 0:
            return
        hosting = set(self.placement)
        for d in range(len(self.cluster)):
            if d in self._dead or d in hosting:
                continue
            if self.monitor.coefficient(d) != 1.0:
                self.monitor.decay_toward_unit(d, self.idle_decay)

    # ------------------------------------------------------------------ #
    # event injection (both modes)                                       #
    # ------------------------------------------------------------------ #
    @property
    def _dead(self) -> set[int]:
        return self._player.failed

    def _advance_events(self, now: float) -> None:
        fired = self._player.due(now)
        # Push the new perturbation state into the simulators *before*
        # acting on the events: a failure handled below books restore and
        # replay charges on a destination whose time_scale must already
        # reflect every window that opened or expired by ``now``.
        if fired or self._player.has_active:
            self._refresh_scales(now)
        for event in fired:
            self._apply_event(event, now)

    def _apply_event(self, event, now: float) -> None:
        if isinstance(event, (DeviceSlowdown, LoadSpike, DeviceFailure)):
            if not 0 <= event.device < len(self.cluster):
                raise ConfigError(
                    f"event targets device {event.device}, but the cluster "
                    f"has {len(self.cluster)} devices"
                )
        if isinstance(event, DeviceFailure):
            self._handle_failure(event.device, now)
        elif isinstance(event, DeviceJoin):
            self._handle_join(event, now)
        self._events_applied.append(
            {"time_s": round(event.time_s, 6), **event_desc(event)}
        )
        self.callbacks.on_event(event, now)

    def _refresh_scales(self, now: float) -> None:
        scales = self._player.scales(now)
        for d, device in enumerate(self.cluster):
            if d in self._dead:
                continue
            target = scales.get(d, 1.0)
            if device.sim.time_scale != target:
                device.sim.perturb(target)

    def _handle_join(self, event: DeviceJoin, now: float) -> None:
        device = Device(
            platform=get_platform(event.platform),
            memory_budget=event.memory_budget,
        )
        index = self.ctx.add_device(device)
        self._joined.append(index)
        self.monitor.ensure_device(index)
        if self._mode == "pipelined":
            self.clock.add_device(start_time=now)

    # ------------------------------------------------------------------ #
    # pipelined hooks (called by PipelineExecutor)                       #
    # ------------------------------------------------------------------ #
    def on_stage_step(self, k: int, observed_s: float, batch_samples: int) -> None:
        if batch_samples != self.problem.microbatch:
            # Ragged final micro-batch: the cost model priced full ones,
            # so the ratio would read as phantom drift.
            return
        d = self.placement[k]
        self.monitor.observe(d, self._base_step(k, d), observed_s)

    def after_microbatch(self) -> None:
        self._m += 1
        now = self.clock.makespan
        self._advance_events(now)
        if self.adapt and self._m % self.check_every == 0:
            self._decay_idle_coefficients()
            coeffs = self.monitor.coefficients()
            if (
                self.monitor.any_drift()
                and self._coeffs_differ(coeffs, self._coeffs_at_last_decision)
                and not self._coeffs_differ(coeffs, self._coeffs_at_last_check)
            ):
                self._trace_decision(
                    "drift-detected", now,
                    {"coefficients": [round(c, 4) for c in coeffs]},
                )
                self._consider_replacement(now, forced=False)
            self._coeffs_at_last_check = coeffs
        if self.adapt and self._m % self.checkpoint_every == 0:
            for k in range(len(self.workers)):
                self._checkpoint_pipelined(k, now)

    def _coeffs_differ(self, coeffs: list[float], prev: list[float] | None) -> bool:
        """Has any coefficient moved more than ``stability_tol`` (relative)
        against ``prev``?  Two gates hang off this: a consult needs the
        EWMA *settled* (no change since the previous check -- deciding on
        a half-converged model invites a correction right after) yet
        *news* since the previous decision (a vacated device's frozen
        drifted coefficient must not re-trigger the search every single
        micro-batch for the rest of the run)."""
        if prev is None or len(prev) != len(coeffs):
            return True
        return any(
            abs(c - p) > self.stability_tol * max(abs(p), 1e-12)
            for c, p in zip(coeffs, prev)
        )

    def _base_step(self, k: int, d: int) -> float:
        """Nominal (coefficient-free) step price of block ``k`` on ``d``."""
        key = (k, d)
        if key not in self._base_step_cache:
            if d < len(self.problem.step_times[k]):
                self._base_step_cache[key] = self.problem.step_times[k][d]
            else:  # a joined device: price it the way build_problem did
                self._base_step_cache[key] = price_training_step(
                    self.cluster[d].platform,
                    self.problem.costs[k],
                    self.problem.microbatch,
                    self.problem.sample_bytes,
                    "prefetch-raw" if k == 0 else "prefetch-cache",
                )
        return self._base_step_cache[key]

    def _checkpoint_pipelined(self, k: int, now: float) -> None:
        worker = self.workers[k]
        d = self.placement[k]
        ckpt = snapshot_worker(worker)
        t = self.cluster[d].sim.add_cache_write(ckpt.nbytes, n_files=1)
        self._checkpoint_time_s += t
        self.clock.hold_device(d, max(self.clock.device_free[d], now) + t)
        self.store.put(k, self._m, ckpt)

    def _handle_failure(self, d: int, now: float) -> None:
        if self._mode == "pipelined":
            orphaned = [k for k, dev in enumerate(self.placement) if dev == d]
            if not orphaned:
                return
            if not self.adapt:
                raise FaultError(
                    f"device {d} failed at t={now:.3f}s with blocks "
                    f"{orphaned} resident and no recovery path (adapt=False)"
                )
            self._consider_replacement(now, forced=True)
        else:
            self._sequential_failure(d, now)

    def _migration_cost(self, k: int, src: int, dst: int) -> float:
        # Only the pipelined mode consults the policy (sequential moves
        # are free for future blocks and forced on failure).  Priced at
        # the exact wire size a migration would charge (the serialized
        # payload, not just the raw parameter bytes) so the accept margin
        # weighs the same cost the ledger will see; the size depends only
        # on tensor shapes, so one serialization per block is exact
        # forever and cached.
        if k not in self._wire_nbytes:
            self._wire_nbytes[k] = len(
                serialize_checkpoint(snapshot_worker(self.workers[k]))
            )
        nbytes = self._wire_nbytes[k]
        if src in self._dead:
            # Recovery reads from the checkpoint store instead of a link.
            return self.cluster[dst].sim.storage_time(nbytes, n_ops=1)
        return self.cluster.transfer_time(src, dst, nbytes)

    def _consider_replacement(self, now: float, forced: bool) -> None:
        remaining = max(1, self.problem.n_microbatches - self._m)
        try:
            decision = self.policy.consider(
                self.problem,
                self.cluster,
                list(self.placement),
                self.monitor.coefficients(),
                self._dead,
                remaining,
                now,
                self._last_replacement_s,
                self._migration_cost,
            )
        except PlacementError as exc:
            if forced:
                # The documented contract: an unrecoverable fault (no
                # surviving device fits the orphaned blocks) is a
                # FaultError, same as the sequential path.
                raise FaultError(str(exc)) from exc
            raise
        # Whatever the verdict, it was reached against these coefficients;
        # don't re-litigate until they materially change.
        self._record_decision()
        self._trace_decision(
            "replacement-accepted" if decision.accept else "replacement-rejected",
            now,
            {"forced": forced, "placement": list(decision.placement)},
        )
        if not decision.accept:
            return
        # Two-phase residency handoff: release every moved block's source
        # allocation before the first destination alloc, or a swap between
        # two near-budget devices would transiently hold both blocks on
        # one device and trip the budget even though the final placement
        # is feasible.
        for k in decision.moved_blocks:
            self.ctx.free_block(k)
        for k in decision.moved_blocks:
            src = self.placement[k]
            dst = decision.placement[k]
            worker = self.workers[k]
            if src in self._dead:
                entry = self.store.get(k)
                if entry is None:
                    raise FaultError(
                        f"device {src} failed but block {k} was never "
                        "checkpointed; its state is unrecoverable"
                    )
                covered, ckpt = entry
                record = failure_recovery(
                    self.cluster,
                    k,
                    src,
                    dst,
                    worker,
                    ckpt,
                    lost_microbatches=self._m - covered,
                    replay_batch=self.problem.microbatch,
                    input_mode="prefetch-raw" if k == 0 else "prefetch-cache",
                    now=now,
                )
            else:
                record = planned_migration(self.cluster, k, dst, worker, now)
            self.migrations.append(record)
            self.callbacks.on_migration(record, now)
            self.placement[k] = dst
            self.clock.device_of[k] = dst
            self.clock.hold_device(
                dst, max(self.clock.device_free[dst], now) + record.recovery_s
            )
            self.ctx.alloc_block(k, self.problem.costs[k].residency_bytes)
            if record.reason == "failure":
                # The recovered replica is now the freshest state: re-seed
                # the store so a second failure replays from here.
                self._checkpoint_pipelined(k, now)
        self._n_replacements += 1
        self._last_replacement_s = now
        self._placement_history.append(list(self.placement))

    def _record_decision(self) -> None:
        self._coeffs_at_last_decision = self.monitor.coefficients()

    def _trace_decision(self, name: str, now: float, attrs: dict) -> None:
        """Mark a control-loop decision on the trace's ``runtime`` track."""
        tracer = active_tracer()
        if tracer is not None:
            tracer.instant(name, "runtime-decision", "runtime", now, attrs)

    # ------------------------------------------------------------------ #
    # sequential hooks (called from the controller's block loop)         #
    # ------------------------------------------------------------------ #
    def sequential_block_start(self, block, worker, input_mode: str) -> None:
        if self._mode != "sequential":
            raise ConfigError("runtime was not bound to a sequential run")
        self._cur_block = block
        self._cur_worker = worker
        self._cur_input_mode = input_mode
        self._cur_batches = 0
        if self.adapt:
            # Checkpoint before looking at the event stream: a failure
            # that fires this very instant must have something to restore.
            self._checkpoint_sequential()
        self._advance_events(self.ctx.elapsed)

    def sequential_on_batch(
        self, n_in_pass: int, step_s: float, batch_samples: int
    ) -> None:
        block = self._cur_block
        self._cur_batches += 1
        self._m += 1
        d = self.placement[block.index]
        if batch_samples == block.batch_size:  # skip ragged final batches
            self.monitor.observe(d, self._seq_base_step(block, d), step_s)
        now = self.ctx.elapsed
        self._advance_events(now)
        if self.adapt and self._cur_batches % self.check_every == 0:
            self._decay_idle_coefficients()
            if self.monitor.any_drift() and self._coeffs_differ(
                self.monitor.coefficients(), self._coeffs_at_last_decision
            ):
                self._trace_decision(
                    "drift-detected", now,
                    {"coefficients": [
                        round(c, 4) for c in self.monitor.coefficients()
                    ]},
                )
                self._replace_future_blocks(block.index, now)
                self._record_decision()
        if self.adapt and self._cur_batches % self.checkpoint_every == 0:
            self._checkpoint_sequential()

    def sequential_block_end(self, block) -> None:
        self._cur_block = None
        self._cur_worker = None

    def _seq_base_step(self, block, d: int) -> float:
        """Nominal per-batch price of the current block on device ``d``
        (at the block's own adaptive batch size, unlike the pipeline)."""
        key = (-1 - block.index, d)
        if key not in self._base_step_cache:
            self._base_step_cache[key] = price_training_step(
                self.cluster[d].platform,
                self.problem.costs[block.index],
                block.batch_size,
                self.problem.sample_bytes,
                self._cur_input_mode,
            )
        return self._base_step_cache[key]

    def _checkpoint_sequential(self) -> None:
        block, worker = self._cur_block, self._cur_worker
        ckpt = snapshot_worker(worker)
        d = self.placement[block.index]
        self._checkpoint_time_s += self.cluster[d].sim.add_cache_write(
            ckpt.nbytes, n_files=1
        )
        self.store.put(block.index, self._cur_batches, ckpt)

    def _sequential_failure(self, d: int, now: float) -> None:
        block = self._cur_block
        hosts_live_state = block is not None and self.placement[block.index] == d
        if not self.adapt:
            current = -1 if block is None else block.index
            stranded = [
                b.index
                for b in self.blocks
                if b.index >= current and self.placement[b.index] == d
            ]
            if stranded:
                raise FaultError(
                    f"device {d} failed at t={now:.3f}s with blocks "
                    f"{stranded} depending on it and no recovery path "
                    "(adapt=False)"
                )
            return
        if hosts_live_state:
            entry = self.store.get(block.index)
            if entry is None:
                raise FaultError(
                    f"device {d} failed but block {block.index} was never "
                    "checkpointed; its state is unrecoverable"
                )
            covered, ckpt = entry
            dst = self._best_sequential_device(block)
            record = failure_recovery(
                self.cluster,
                block.index,
                d,
                dst,
                self._cur_worker,
                ckpt,
                lost_microbatches=self._cur_batches - covered,
                replay_batch=block.batch_size,
                input_mode=self._cur_input_mode,
                now=now,
            )
            self.migrations.append(record)
            self.callbacks.on_migration(record, now)
            self.ctx.move_block(block.index, dst)
            self._n_replacements += 1
            self._last_replacement_s = now
            self._placement_history.append(list(self.placement))
            self._checkpoint_sequential()
        if self.adapt:
            current = -1 if block is None else block.index
            self._replace_future_blocks(current, now)

    def _replace_future_blocks(self, current_index: int, now: float) -> None:
        """Re-place untrained blocks (free: they hold no state yet)."""
        changed = False
        for b in self.blocks:
            if b.index <= current_index:
                continue
            best = self._best_sequential_device(b)
            changed = changed or best != self.placement[b.index]
            self.placement[b.index] = best
        if changed:
            self._placement_history.append(list(self.placement))
            self._trace_decision(
                "replacement-accepted", now,
                {"forced": False, "placement": list(self.placement)},
            )

    def _best_sequential_device(self, block) -> int:
        """Fastest alive device that fits ``block``, by refined price."""
        need = self.residency_fn(block)
        cost = self.problem.costs[block.index]
        stay = self.placement[block.index]
        best, best_key = -1, None
        for d, device in enumerate(self.cluster):
            if d in self._dead or need > device.memory_budget:
                continue
            price = price_training_step(
                device.platform,
                cost,
                block.batch_size,
                self.problem.sample_bytes,
                "prefetch-raw" if block.index == 0 else "prefetch-cache",
            ) * self.monitor.coefficient(d)
            key = (price, 0 if d == stay else 1, d)
            if best_key is None or key < best_key:
                best, best_key = d, key
        if best < 0:
            raise FaultError(
                f"no alive device fits block {block.index} "
                f"({need} B resident; dead={sorted(self._dead)})"
            )
        return best

    # ------------------------------------------------------------------ #
    # reporting                                                          #
    # ------------------------------------------------------------------ #
    def report(self) -> RuntimeReport:
        return RuntimeReport(
            adapt=self.adapt,
            initial_placement=list(self._initial_placement),
            final_placement=list(self.placement),
            placement_history=[list(p) for p in self._placement_history],
            events_applied=list(self._events_applied),
            migrations=list(self.migrations),
            n_replacements=self._n_replacements,
            coefficients=self.monitor.coefficients() if self.monitor else [],
            failed_devices=sorted(self._dead),
            joined_devices=list(self._joined),
            checkpoint_time_s=self._checkpoint_time_s,
        )


def event_desc(event) -> dict:
    """JSON-friendly description of one event (sans its time)."""
    out = {"type": event.kind}
    for name in event.__dataclass_fields__:
        if name != "time_s":
            out[name] = getattr(event, name)
    return out
