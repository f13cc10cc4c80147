"""Pipeline-parallel execution of NeuroFlux blocks across a cluster.

Because every block trains against purely local losses, the only
inter-block dependency is the forward activation stream: block ``k`` can
train on micro-batch ``m`` as soon as block ``k-1`` has trained on (and
emitted) it.  The executor streams micro-batches through the block chain
in exactly that dataflow order, while :class:`PipelineClock` tracks when
each step would run on its placed device:

* stages placed on the same device serialize on that device's clock;
* activations cross devices over cluster links, charged to the sender's
  ``communication`` ledger category;
* a bounded queue (capacity ``queue_capacity``) sits before every stage --
  a full queue back-pressures the producer in the *timing model* (it would
  bound a real deployment's run-ahead; here the numpy execution always
  follows strict dataflow order, so the trained weights are invariant to
  the queue depth and only makespan/bubble numbers respond to it).

The same clock recurrence prices candidate placements analytically (see
:mod:`repro.parallel.placement`), so predicted and simulated makespans are
directly comparable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.api.callbacks import BatchInfo, Callback
from repro.core.worker import BlockWorker
from repro.errors import ConfigError
from repro.hw.simulator import block_input_mode
from repro.obs.trace import active_tracer
from repro.parallel.cluster import Cluster


class PipelineClock:
    """Event clock for a chain of pipeline stages on shared devices.

    Feed it one ``step`` call per (micro-batch, stage) pair in dataflow
    order -- micro-batch outer, stage inner.  It applies the recurrence::

        start[k][m]  = max(arrive[k][m], device_free[dev(k)], depart[k][m-1])
        finish[k][m] = start[k][m] + step_time
        depart[k][m] = max(finish[k][m], start[k+1][m-Q])   # back-pressure
        arrive[k+1][m] = depart[k][m] + comm_time

    where ``Q`` is the queue capacity: a stage cannot hand off micro-batch
    ``m`` until its consumer has popped micro-batch ``m-Q``, and it cannot
    start ``m+1`` until its output register (the undelivered ``m``) drains.
    """

    def __init__(
        self,
        device_of: list[int],
        n_devices: int,
        queue_capacity: int = 2,
        start_offsets: list[float] | None = None,
    ):
        if not device_of:
            raise ConfigError("need at least one stage")
        if queue_capacity < 1:
            raise ConfigError("queue capacity must be >= 1")
        for d in device_of:
            if not 0 <= d < n_devices:
                raise ConfigError(f"stage device {d} out of range")
        if start_offsets is None:
            start_offsets = [0.0] * n_devices
        if len(start_offsets) != n_devices:
            raise ConfigError("one start offset per device required")
        self.device_of = list(device_of)
        self.queue_capacity = queue_capacity
        self.device_free = list(start_offsets)
        self.device_busy = [0.0] * n_devices
        self._starts: list[list[float]] = [[] for _ in device_of]
        self._departs: list[list[float]] = [[] for _ in device_of]
        self._arrivals: list[list[float]] = [[] for _ in device_of]
        self.makespan = max(start_offsets) if start_offsets else 0.0

    def step(self, k: int, step_time: float, comm_time: float = 0.0) -> tuple[float, float]:
        """Advance stage ``k`` by one micro-batch; returns (start, finish).

        ``comm_time`` is the transfer to stage ``k+1`` (ignored for the
        last stage).  Steps must be fed micro-batch-major: all stages see
        micro-batch ``m`` before any stage sees ``m+1``.
        """
        n_stages = len(self.device_of)
        m = len(self._starts[k])
        if k > 0 and m >= len(self._arrivals[k]):
            raise ConfigError(
                f"stage {k} fed micro-batch {m} before stage {k - 1} emitted it"
            )
        arrive = self._arrivals[k][m] if k > 0 else 0.0
        prev_depart = self._departs[k][m - 1] if m > 0 else 0.0
        d = self.device_of[k]
        start = max(arrive, self.device_free[d], prev_depart)
        finish = start + step_time
        self.device_free[d] = finish
        self.device_busy[d] += step_time
        self._starts[k].append(start)
        if k + 1 < n_stages:
            q = self.queue_capacity
            slot_free = self._starts[k + 1][m - q] if m >= q else 0.0
            depart = max(finish, slot_free)
            self._arrivals[k + 1].append(depart + comm_time)
        else:
            depart = finish
        self._departs[k].append(depart)
        self.makespan = max(self.makespan, finish)
        return start, finish

    # -- elasticity hooks (repro.runtime) ---------------------------------
    def add_device(self, start_time: float = 0.0) -> int:
        """Admit a device mid-run (elastic join); returns its index.

        The newcomer is free from ``start_time`` on and has done no work.
        """
        if start_time < 0:
            raise ConfigError("start_time must be non-negative")
        self.device_free.append(start_time)
        self.device_busy.append(0.0)
        return len(self.device_free) - 1

    def hold_device(self, d: int, until: float) -> None:
        """Occupy device ``d`` until ``until`` (migration/recovery delay).

        The hold is real occupancy on the run's critical path -- restores
        and replayed steps keep the device from training -- so it extends
        the makespan like any other step would.
        """
        if not 0 <= d < len(self.device_free):
            raise ConfigError(f"device {d} out of range")
        if until > self.device_free[d]:
            self.device_free[d] = until
            self.makespan = max(self.makespan, until)


def schedule_timing(
    step_times: list[list[float]],
    comm_times: list[list[float]],
    device_of: list[int],
    n_devices: int,
    queue_capacity: int = 2,
    start_offsets: list[float] | None = None,
) -> PipelineClock:
    """Run the clock over a fully known schedule (the analytic predictor).

    ``step_times[k][m]`` is stage ``k``'s time on micro-batch ``m``;
    ``comm_times[k][m]`` the following transfer (one list per stage
    boundary, so ``len(comm_times) == len(step_times) - 1``).
    """
    if len(comm_times) != max(0, len(step_times) - 1):
        raise ConfigError("need one comm series per stage boundary")
    clock = PipelineClock(device_of, n_devices, queue_capacity, start_offsets)
    n_items = len(step_times[0]) if step_times else 0
    for times in step_times:
        if len(times) != n_items:
            raise ConfigError("every stage must see the same micro-batch count")
    for m in range(n_items):
        for k in range(len(step_times)):
            comm = comm_times[k][m] if k + 1 < len(step_times) else 0.0
            clock.step(k, step_times[k][m], comm)
    return clock


@dataclass
class PipelineStats:
    """What one cluster training run did, time-wise (the sequential
    schedule is summarised the same way: zero micro-batches, each
    device busy for exactly its ledger total)."""

    makespan_s: float
    device_busy_s: list[float]
    device_active: list[bool]
    n_microbatches: int
    comm_bytes: int

    @property
    def utilization(self) -> list[float]:
        """Per-device busy fraction of the makespan (0 for idle devices).

        Counts compute occupancy only: the clock models transfers as
        asynchronous (NIC/DMA alongside the next step), so including the
        ledger's communication seconds would double-count a bottleneck
        device past 100%.
        """
        if self.makespan_s <= 0:
            return [0.0] * len(self.device_busy_s)
        return [busy / self.makespan_s for busy in self.device_busy_s]

    @property
    def bubble_fraction(self) -> float:
        """Mean idle fraction across the devices that host at least one block."""
        used = [
            u for u, active in zip(self.utilization, self.device_active) if active
        ]
        if not used:
            return float("nan")
        return 1.0 - sum(used) / len(used)


class PipelineExecutor:
    """Streams training micro-batches through placed block workers.

    Each stage ``k`` is one partition block, trained by a
    :class:`~repro.core.worker.BlockWorker` whose simulator belongs to the
    placed device.  Execution follows dataflow order, so block ``k`` sees
    micro-batch ``m`` only after block ``k-1`` trained on it -- upstream
    weights are exactly ``m+1`` updates old (bounded staleness), instead of
    fully trained as in the sequential schedule.
    """

    def __init__(
        self,
        cluster: Cluster,
        placement: list[int],
        workers: list[BlockWorker],
        x_train: np.ndarray,
        y_train: np.ndarray,
        microbatch: int,
        seed: int = 0,
        queue_capacity: int = 2,
        start_offsets: list[float] | None = None,
        callbacks: Callback | None = None,
        runtime=None,
    ):
        if len(placement) != len(workers):
            raise ConfigError(
                f"one device per block required: {len(placement)} vs {len(workers)}"
            )
        for d in placement:
            if not 0 <= d < len(cluster):
                raise ConfigError(f"placement device {d} out of range")
        if microbatch < 1:
            raise ConfigError("microbatch must be >= 1")
        self.cluster = cluster
        #: Shared with the caller, not copied: the adaptive runtime
        #: re-places blocks through this list, and the run's
        #: :class:`~repro.parallel.cluster.DeviceContext` must see the
        #: same moves.
        self.placement = placement
        self.workers = workers
        self.x_train = x_train
        self.y_train = y_train
        self.microbatch = int(microbatch)
        self.seed = seed
        self.queue_capacity = queue_capacity
        self.start_offsets = start_offsets
        #: Unified observation hooks (:mod:`repro.api.callbacks`): one
        #: ``on_batch`` per (micro-batch, stage) pair -- ``last_stage``
        #: marks the end of each micro-batch -- and one ``on_epoch_end``
        #: per epoch.  The adaptive runtime subscribes through the same
        #: list; it may mutate ``placement``, rebind worker simulators
        #: and grow the cluster/clock -- the executor just keeps
        #: streaming.
        self.callbacks = callbacks
        #: The adaptive control loop itself, kept for run-start binding
        #: (:meth:`AdaptiveRuntime.bind_live`); its per-step
        #: observations arrive through :attr:`callbacks` like everyone
        #: else's.
        self.runtime = runtime

    def _epoch_batches(self, epoch: int) -> Iterable[tuple[np.ndarray, np.ndarray]]:
        from repro.data.loader import DataLoader
        from repro.utils.rng import spawn_rng

        return DataLoader(
            self.x_train,
            self.y_train,
            self.microbatch,
            shuffle=True,
            rng=spawn_rng(self.seed, f"nf/pipeline/epoch{epoch}"),
        )

    def run(self, epochs: int, time_budget_s: float | None = None) -> PipelineStats:
        if epochs < 1:
            raise ConfigError("epochs must be >= 1")
        for worker in self.workers:
            for spec in worker.layer_specs:
                spec.module.train()
            for aux in worker.aux_heads:
                aux.train()
        clock = PipelineClock(
            self.placement,
            len(self.cluster),
            self.queue_capacity,
            self.start_offsets,
        )
        if self.runtime is not None:
            self.runtime.bind_live(dict(enumerate(self.workers)), clock)
        # The executor emits its own spans from the pipeline clock (not
        # from the device simulators' ledgers, whose cumulative totals are
        # a different timeline): one complete span per (stage, micro-batch)
        # step on the placed device's track, plus one async span per
        # cross-device transfer -- async because the clock models the NIC
        # alongside the next compute step, so transfers may overlap.
        tracer = active_tracer()
        # Devices that ever host a stage: under a runtime the placement
        # moves, and bubble accounting must include a device that carried
        # blocks for most of the run even if it failed or was vacated.
        ever_hosted = set(self.placement)
        comm_bytes = 0
        n_micro = 0
        stopped = False
        for epoch in range(epochs):
            loss_sum = 0.0
            n_samples = 0
            for x, y in self._epoch_batches(epoch):
                loss = float("nan")
                for k, worker in enumerate(self.workers):
                    out, loss, step_t = worker.train_batch(
                        x, y, input_mode=block_input_mode(k)
                    )
                    comm_t = 0.0
                    nbytes = 0
                    src = self.placement[k]
                    if k + 1 < len(self.workers):
                        dst = self.placement[k + 1]
                        nbytes = out.nbytes + y.nbytes
                        comm_t = self.cluster.charge_transfer(src, dst, nbytes)
                        if src != dst:
                            comm_bytes += nbytes
                    start, finish = clock.step(k, step_t, comm_t)
                    if tracer is not None:
                        tracer.add_span(
                            f"block{k}",
                            "train",
                            f"dev{src}",
                            start,
                            finish,
                            attrs={"epoch": epoch, "microbatch": n_micro + 1},
                        )
                        if comm_t > 0.0:
                            depart = clock._departs[k][-1]
                            tracer.add_span(
                                f"block{k}->block{k + 1}",
                                "communication",
                                f"dev{src}",
                                depart,
                                depart + comm_t,
                                attrs={"nbytes": nbytes},
                                kind="async",
                            )
                    if self.callbacks is not None:
                        self.callbacks.on_batch(
                            BatchInfo(
                                scope="stage",
                                block_index=k,
                                n_done=n_micro + 1,
                                step_s=step_t,
                                n_samples=len(y),
                                last_stage=k + 1 == len(self.workers),
                            )
                        )
                    x = out
                loss_sum += loss * len(x)
                n_samples += len(x)
                n_micro += 1
                ever_hosted.update(self.placement)
                if time_budget_s is not None and clock.makespan >= time_budget_s:
                    stopped = True
                    break
            mean_loss = loss_sum / n_samples if n_samples else float("nan")
            if self.callbacks is not None:
                self.callbacks.on_epoch_end(
                    epoch, clock.makespan, {"loss": mean_loss}
                )
            if stopped:
                break
        active = [d in ever_hosted for d in range(len(self.cluster))]
        return PipelineStats(
            makespan_s=clock.makespan,
            device_busy_s=list(clock.device_busy),
            device_active=active,
            n_microbatches=n_micro,
            comm_bytes=comm_bytes,
        )
