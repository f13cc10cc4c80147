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
from repro.api.report import json_num
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
            "checkpoint_time_s": json_num(self.checkpoint_time_s),
            "recovery_time_s": json_num(self.recovery_time_s),
            "migration_transfer_s": json_num(self.migration_transfer_s),
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


#: Steps of the live set (pipelined micro-batches, or the current
#: sequential block's batches) between periodic checkpoints of every
#: live block: the fault-tolerance overhead, and what failure recovery
#: replays from.
CHECKPOINT_EVERY = 4
#: A pipelined re-placement waits until every refined coefficient has
#: settled -- moved less than this fraction since the previous check:
#: acting on a half-converged EWMA would optimize against a cost model
#: that is still moving, then "correct" the move a moment later.
STABILITY_TOL = 0.15
#: Per-consultation relaxation of *idle* device coefficients toward
#: ``1.0`` (:meth:`DriftMonitor.decay_toward_unit`): a vacated device
#: stops producing observations, so without decay an expired load spike
#: would blacklist it forever.
IDLE_DECAY = 0.25


class AdaptiveRuntime(Callback):
    """Adaptive control loop for one cluster training run.

    The runtime is a :class:`repro.api.callbacks.Callback`: the
    controller and pipeline executor emit every trained batch through the
    unified callback list, and the runtime subscribes to ``on_batch``
    like any other observer (it is placed first so later callbacks see
    post-migration state).  In the other direction it *emits* through
    the same list: injected fault/load events surface as ``on_event``
    and block moves as ``on_migration`` to every other subscriber.

    ``events`` is the fault/load schedule to inject (``None`` = calm);
    ``adapt=False`` injects events but never re-places (the benchmark's
    static arm; a failure with live state then raises
    :class:`FaultError`).

    Both schedules run one loop.  :meth:`bind` attaches the run, and
    :meth:`bind_live` each *live set* -- the blocks training right now:
    every block of a pipelined run, the current block of a sequential
    one.  Every batch is observed against its nominal price; each unit
    of progress (``BatchInfo.last_stage``) advances the event stream,
    consults the monitor and, every :data:`CHECKPOINT_EVERY` steps,
    checkpoints the live set.  Two rules differ by schedule: the
    decision (a pipelined run asks the migration-priced
    :class:`ReplacementPolicy`, once the coefficients have settled to
    within :data:`STABILITY_TOL`; a sequential run re-places its
    untrained blocks for free) and failure handling.  Idle devices'
    coefficients relax by :data:`IDLE_DECAY` per consultation.
    """

    def __init__(self, events: EventSchedule | None = None, adapt: bool = True):
        self.schedule = events if events is not None else EventSchedule()
        self.adapt = bool(adapt)
        self.policy = ReplacementPolicy()
        self.store = CheckpointStore()
        self.monitor: DriftMonitor | None = None
        #: Outbound hook sink: the callback list of the driving run
        #: (set by the controller when it assembles the list).  Injected
        #: events and block moves are emitted through it as
        #: ``on_event`` / ``on_migration``.
        self.callbacks: Callback = Callback()
        # -- run state --
        self.ctx = None
        self.clock = None
        self._player = SchedulePlayer(None)
        self._joined: list[int] = []
        self._events_applied: list[dict] = []
        self.migrations: list[MigrationRecord] = []
        self._n_replacements = 0
        self._checkpoint_time_s = 0.0
        self._initial_placement: list[int] = []
        self._placement_history: list[list[int]] = []
        self._workers: dict = {}  # live block index -> its worker
        self._steps = 0  # units of progress of the live set
        self._price_cache: dict[tuple[int, int], float] = {}
        self._coeffs_at_last_check: list[float] | None = None
        self._coeffs_at_last_decision: list[float] | None = None
        self._wire_nbytes: dict[int, int] = {}

    # ------------------------------------------------------------------ #
    # binding                                                            #
    # ------------------------------------------------------------------ #
    def bind(self, schedule, problem, ctx, step_inputs, residency_fn) -> None:
        """Attach to one cluster run (called once, by ``train_parallel``).

        ``step_inputs[k]`` is block ``k``'s ``(batch, input_mode)``: what
        one of its training steps is fed, which prices it, replays it
        and ranks devices for it.  ``residency_fn(block)`` is a block's
        resident bytes at its own batch (the sequential re-placement's
        fit test).
        """
        if self.ctx is not None:
            raise ConfigError(
                "an AdaptiveRuntime instance drives exactly one run; "
                "construct a fresh one"
            )
        self._mode = schedule
        #: The run's :class:`~repro.parallel.cluster.DeviceContext`:
        #: block residency moves and joined devices go through it.
        self.ctx = ctx
        self.cluster = cluster = ctx.cluster
        self.problem = problem
        self.blocks = problem.blocks
        self.step_inputs = step_inputs
        self.residency_fn = residency_fn
        self.placement: list[int] = ctx.placement  # shared list: updates are live
        self._initial_placement = list(self.placement)
        self._placement_history = [list(self.placement)]
        self.monitor = DriftMonitor(len(cluster))
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

    def bind_live(self, workers: dict, clock=None) -> None:
        """Bind the live set: ``workers`` maps each block now training to
        its worker.  ``clock`` is the pipeline's; a sequential run's clock
        is its context's serialized work."""
        self._workers = workers
        self.clock = clock
        self._steps = 0
        if self.adapt:
            # Baseline checkpoints, taken before looking at the event
            # stream: a failure that fires this very instant must have
            # something to restore.  Each starts on the clock as the
            # previous one left it.
            for k in workers:
                self._checkpoint(k, self._now())
        self._advance_events(self._now())

    def _now(self) -> float:
        return self.clock.makespan if self.clock is not None else self.ctx.elapsed

    # ------------------------------------------------------------------ #
    # the loop                                                           #
    # ------------------------------------------------------------------ #
    def on_batch(self, info: BatchInfo) -> None:
        """The runtime's inbound hook on the unified callback protocol:
        observe every batch, then act once per unit of progress."""
        if not self._workers:
            raise ConfigError("runtime observed a batch before being bound")
        k = info.block_index
        # A ragged final batch is skipped: the cost model priced full
        # ones, so the ratio would read as phantom drift.
        if info.n_samples == self.step_inputs[k][0]:
            d = self.placement[k]
            self.monitor.observe(d, self._price(k, d), info.step_s)
        if not info.last_stage:
            return
        self._steps += 1
        now = self._now()
        self._advance_events(now)
        if self.adapt:
            self._consult(now)
            if self._steps % CHECKPOINT_EVERY == 0:
                for k in self._workers:
                    self._checkpoint(k, now)

    def _price(self, k: int, d: int) -> float:
        """Nominal (coefficient-free) step price of block ``k`` on ``d``,
        at the batch and input mode the schedule feeds it -- the call
        ``build_problem`` priced the pipelined ``step_times`` with."""
        key = (k, d)
        if key not in self._price_cache:
            batch, mode = self.step_inputs[k]
            self._price_cache[key] = price_training_step(
                self.cluster[d].platform,
                self.problem.costs[k],
                batch,
                self.problem.sample_bytes,
                mode,
            )
        return self._price_cache[key]

    def _checkpoint(self, k: int, now: float) -> None:
        d = self.placement[k]
        ckpt = snapshot_worker(self._workers[k])
        t = self.cluster[d].sim.add_cache_write(ckpt.nbytes, n_files=1)
        self._checkpoint_time_s += t
        self._hold(d, now, t)
        self.store.put(k, self._steps, ckpt)

    def _hold(self, d: int, now: float, seconds: float) -> None:
        """Occupy ``d`` for ``seconds`` from ``now`` on the pipeline clock
        (a sequential run's clock is the ledger charge itself)."""
        if self.clock is not None:
            self.clock.hold_device(d, max(self.clock.device_free[d], now) + seconds)

    def _decay_idle_coefficients(self) -> None:
        """Relax coefficients of alive devices hosting no blocks.

        Such devices produce no observations, so their refined
        coefficients would otherwise freeze -- an expired load spike
        would blacklist a vacated device forever.
        """
        hosting = set(self.placement)
        for d in range(len(self.cluster)):
            if d in self._dead or d in hosting:
                continue
            if self.monitor.coefficient(d) != 1.0:
                self.monitor.decay_toward_unit(d, IDLE_DECAY)

    def _coeffs_differ(self, coeffs: list[float], prev: list[float] | None) -> bool:
        """Has any coefficient moved more than :data:`STABILITY_TOL`
        (relative) against ``prev``?  Two gates hang off this: a
        pipelined consult needs the EWMA *settled* (no change since the
        previous check -- deciding on a half-converged model invites a
        correction right after), and every consult needs *news* since
        the previous decision (a vacated device's frozen drifted
        coefficient must not re-trigger the search every single step for
        the rest of the run)."""
        if prev is None or len(prev) != len(coeffs):
            return True
        return any(
            abs(c - p) > STABILITY_TOL * max(abs(p), 1e-12)
            for c, p in zip(coeffs, prev)
        )

    def _consult(self, now: float) -> None:
        """The decision step: re-place when the refined model drifted."""
        self._decay_idle_coefficients()
        coeffs = self.monitor.coefficients()
        act = self.monitor.any_drift() and self._coeffs_differ(
            coeffs, self._coeffs_at_last_decision
        )
        if self._mode == "pipelined":
            act = act and not self._coeffs_differ(coeffs, self._coeffs_at_last_check)
            self._coeffs_at_last_check = coeffs
        if not act:
            return
        self._trace_decision(
            "drift-detected", now, {"coefficients": [round(c, 4) for c in coeffs]}
        )
        if self._mode == "pipelined":
            self._consider_replacement(now, forced=False)
        else:
            self._replace_future_blocks(now)
            self._record_decision()

    # ------------------------------------------------------------------ #
    # event injection                                                    #
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
        if self.clock is not None:
            self.clock.add_device(start_time=now)

    def _handle_failure(self, d: int, now: float) -> None:
        first = min(self._workers)
        stranded = [
            k for k in range(first, len(self.placement)) if self.placement[k] == d
        ]
        pipelined = self._mode == "pipelined"
        if not self.adapt:
            if stranded:
                raise FaultError(
                    f"device {d} failed at t={now:.3f}s with blocks "
                    f"{stranded} {'resident' if pipelined else 'depending on it'}"
                    " and no recovery path (adapt=False)"
                )
            return
        if pipelined:
            # Every block is live: the policy re-places them together.
            if stranded:
                self._consider_replacement(now, forced=True)
            return
        # Sequential: recover the live block, then re-place the untrained
        # ones away from the corpse.
        if self.placement[first] == d:
            self._apply_moves({first: self._best_device(self.blocks[first])}, now)
        self._replace_future_blocks(now)

    # ------------------------------------------------------------------ #
    # moving blocks                                                      #
    # ------------------------------------------------------------------ #
    def _migration_cost(self, k: int, src: int, dst: int) -> float:
        # Priced at the exact wire size a migration would charge (the
        # serialized payload, not just the raw parameter bytes) so the
        # accept margin weighs the same cost the ledger will see; the
        # size depends only on tensor shapes, so one serialization per
        # block is exact forever and cached.
        if k not in self._wire_nbytes:
            self._wire_nbytes[k] = len(
                serialize_checkpoint(snapshot_worker(self._workers[k]))
            )
        nbytes = self._wire_nbytes[k]
        if src in self._dead:
            # Recovery reads from the checkpoint store instead of a link.
            return self.cluster[dst].sim.storage_time(nbytes, n_ops=1)
        return self.cluster.transfer_time(src, dst, nbytes)

    def _consider_replacement(self, now: float, forced: bool) -> None:
        remaining = max(1, self.problem.n_microbatches - self._steps)
        try:
            decision = self.policy.consider(
                self.problem,
                self.cluster,
                list(self.placement),
                self.monitor.coefficients(),
                self._dead,
                remaining,
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
        if decision.accept:
            self._apply_moves(
                {k: decision.placement[k] for k in decision.moved_blocks}, now
            )

    def _apply_moves(self, moves: dict[int, int], now: float) -> None:
        """Move live blocks (block -> destination device): a planned
        migration off a live device, restore and replay off a dead one."""
        # Two-phase residency handoff: release every moved block's source
        # allocation before the first destination alloc, or a swap between
        # two near-budget devices would transiently hold both blocks on
        # one device and trip the budget even though the final placement
        # is feasible.
        nbytes = {k: self.ctx.free_block(k) for k in moves}
        for k, dst in moves.items():
            src = self.placement[k]
            if src in self._dead:
                record = self._recover(k, src, dst, now)
            else:
                record = planned_migration(self.cluster, k, dst, self._workers[k], now)
            self.migrations.append(record)
            self.callbacks.on_migration(record, now)
            self.placement[k] = dst
            if self.clock is not None:
                self.clock.device_of[k] = dst
            self._hold(dst, now, record.recovery_s)
            self.ctx.alloc_block(k, nbytes[k])
            if record.reason == "failure":
                # The recovered replica is now the freshest state: re-seed
                # the store so a second failure replays from here.
                self._checkpoint(k, now)
        self._n_replacements += 1
        self._placement_history.append(list(self.placement))

    def _recover(self, k: int, src: int, dst: int, now: float) -> MigrationRecord:
        entry = self.store.get(k)
        if entry is None:
            raise FaultError(
                f"device {src} failed but block {k} was never "
                "checkpointed; its state is unrecoverable"
            )
        covered, ckpt = entry
        batch, mode = self.step_inputs[k]
        return failure_recovery(
            self.cluster,
            k,
            src,
            dst,
            self._workers[k],
            ckpt,
            lost_microbatches=self._steps - covered,
            replay_batch=batch,
            input_mode=mode,
            now=now,
        )

    def _replace_future_blocks(self, now: float) -> None:
        """Re-place untrained blocks (free: they hold no state yet)."""
        current = max(self._workers)
        changed = False
        for b in self.blocks:
            if b.index <= current:
                continue
            best = self._best_device(b)
            changed = changed or best != self.placement[b.index]
            self.placement[b.index] = best
        if changed:
            self._placement_history.append(list(self.placement))
            self._trace_decision(
                "replacement-accepted", now,
                {"forced": False, "placement": list(self.placement)},
            )

    def _best_device(self, block) -> int:
        """Fastest alive device that fits ``block``, by refined price."""
        need = self.residency_fn(block)
        stay = self.placement[block.index]
        best, best_key = -1, None
        for d, device in enumerate(self.cluster):
            if d in self._dead or need > device.memory_budget:
                continue
            price = self._price(block.index, d) * self.monitor.coefficient(d)
            key = (price, 0 if d == stay else 1, d)
            if best_key is None or key < best_key:
                best, best_key = d, key
        if best < 0:
            raise FaultError(
                f"no alive device fits block {block.index} "
                f"({need} B resident; dead={sorted(self._dead)})"
            )
        return best

    def _record_decision(self) -> None:
        self._coeffs_at_last_decision = self.monitor.coefficients()

    def _trace_decision(self, name: str, now: float, attrs: dict) -> None:
        """Mark a control-loop decision on the trace's ``runtime`` track."""
        tracer = active_tracer()
        if tracer is not None:
            tracer.instant(name, "runtime-decision", "runtime", now, attrs)

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
