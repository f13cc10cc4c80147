"""Multiprocess block-parallel executor: real wall-clock pipeline overlap.

Local learning makes blocks gradient-independent -- block ``k`` needs
block ``k-1``'s *activations*, never its gradients -- so the PR 3
pipeline schedule, which only overlapped simulated clocks, can overlap
for real: contiguous runs of blocks become *stages*, each stage trains
in its own forked worker process, and micro-batches stream stage to
stage through shared-memory activation rings.  On an N-core host the
stages genuinely run concurrently; the semantics are the pipelined
schedule's (block ``k`` trains on the still-improving outputs of block
``k-1``, one epoch stream end to end).

Mechanics:

* **a host-priced, exact cut** -- :func:`plan_stages` weighs each block
  by what its training step costs on the host
  (:func:`~repro.core.worker.unit_host_step_seconds`: bytes touched and
  kernel dispatches, constants fitted on one BLAS thread) and takes the
  contiguous cut whose slowest stage is lightest.  The plan is a host
  decision; the simulated platform then prices that plan, so
  ``sim_time_s`` is the simulator's makespan of a cut it did not choose
  (ROADMAP 5(b), fitting the simulator to the host, reconciles the two).
* **one arena per stage** -- a stage's blocks take turns per
  micro-batch and never run at once, so every block of a stage attaches
  to one layer workspace pool and one head pool
  (``NeuroFlux._build_worker(block, sim, pools)``); the stage holds each
  scratch slot once, at its worst unit.
* **fork start method** -- workers inherit the fully-built system
  (model, aux heads, data) by address-space copy; nothing is pickled on
  the way in.  Stage 0 runs in the parent, so its weights train in
  place; other stages ship their trained ``state_dict`` -- weights and
  BatchNorm running statistics -- back through a result pipe of their
  own, and the parent loads it before evaluation -- an exit layer scores
  the same on any process count.
* **shared-memory rings** -- each stage boundary owns ``slots``
  preallocated micro-batch buffers (``mp.RawArray``, allocated before
  fork so both sides see the same pages) plus free/full token queues.
  Producers copy into a free slot and post a full token; consumers copy
  out and recycle the slot.  Single producer, single consumer, FIFO
  queues: arrival order is deterministic.
* **deterministic seeding** -- the only randomness is the epoch shuffle
  in stage 0, drawn from ``spawn_rng(seed, "mp/epoch{e}")``; forked
  children copy parent state deterministically and train without rng.
  Two runs with the same seed produce bit-identical weights
  (regression-tested).
* **processes, not BLAS threads** -- every stage runs its GEMMs on one
  BLAS thread, so ``n`` stages use ``n`` cores instead of each spinning
  a full OpenBLAS pool.  Fork, stage 0 and result collection run under
  :func:`repro.backend.blas.one_thread`.

The per-block optimizer states built inside each worker process stay
there; what returns is the trained module state, which is all later
stages of the NeuroFlux pipeline (exit selection, serving) consume.
"""

from __future__ import annotations

import ctypes
import multiprocessing as mp
import os
import queue as queue_mod
import sys
import time
import traceback

import numpy as np

from repro.backend.blas import one_thread, threads_in_force, usable_cores
from repro.core.report import BlockReport, NeuroFluxReport
from repro.core.worker import unit_host_step_seconds
from repro.data.loader import DataLoader
from repro.errors import ConfigError
from repro.hw.simulator import ExecutionSimulator
from repro.utils.rng import spawn_rng

#: Micro-batch buffers per stage boundary; 4 keeps a slow consumer from
#: stalling the producer without holding more than a step of slack.
DEFAULT_SLOTS = 4

#: Parent-side queue waits are chopped into short timeouts so a dead
#: child is noticed instead of deadlocking the run.
_POLL_S = 1.0
_JOIN_S = 60.0


def fork_available() -> bool:
    """True when the platform supports the fork start method (POSIX)."""
    return "fork" in mp.get_all_start_methods()


def plan_stages(blocks, specs, aux_heads, n_stages: int, mb: int):
    """Group contiguous blocks into ``n_stages`` stages with the smallest
    possible slowest stage.

    A block weighs what its training step costs on the host at the stage
    micro-batch ``mb`` (:func:`~repro.core.worker.unit_host_step_seconds`:
    bytes touched and kernel dispatches, fitted on one BLAS thread);
    every stage sees the same micro-batch stream, so the heaviest stage
    sets the pipeline's pace.  The cut is the exact min-max contiguous
    partition (:func:`_min_max_cut`), not a greedy share.
    """
    if n_stages < 1:
        raise ConfigError(f"process count must be >= 1, got {n_stages}")
    loads = [
        sum(unit_host_step_seconds(specs[i], aux_heads[i], mb) for i in b.layer_indices)
        for b in blocks
    ]
    bounds = _min_max_cut(loads, min(n_stages, len(blocks)))
    return [list(blocks[a:b]) for a, b in zip(bounds, bounds[1:])]


def _min_max_cut(loads: list[float], n_parts: int) -> list[int]:
    """Boundaries ``[0, ..., len(loads)]`` of the contiguous ``n_parts``-way
    partition whose largest part sum is smallest (the earliest such cut
    on ties).  Dynamic programme over (prefix, parts): a stage plan has a
    few dozen blocks at most."""
    n = len(loads)
    part = [[sum(loads[a:b]) for b in range(n + 1)] for a in range(n + 1)]
    # cost[k][j]: the best largest part of loads[:j] cut into k parts;
    # cut[k][j]: where that cut's last part starts.
    cost = [[float("inf")] * (n + 1) for _ in range(n_parts + 1)]
    cut = [[0] * (n + 1) for _ in range(n_parts + 1)]
    cost[0][0] = 0.0
    for k in range(1, n_parts + 1):
        for j in range(k, n + 1):
            for i in range(k - 1, j):
                worst = max(cost[k - 1][i], part[i][j])
                if worst < cost[k][j]:
                    cost[k][j], cut[k][j] = worst, i
    bounds = [n]
    for k in range(n_parts, 0, -1):
        bounds.append(cut[k][bounds[-1]])
    return bounds[::-1]


class _ActivationRing:
    """Shared-memory micro-batch ring across one stage boundary.

    Buffers are ``RawArray`` pages allocated *before* fork, so producer
    and consumer address the same physical memory; only slot tokens --
    small integers -- cross the queues.  Numpy views over the raw
    buffers are built lazily per process (views must not cross fork).
    """

    def __init__(self, ctx, slots: int, x_shape: tuple, y_dtype, mb: int):
        self.slots = slots
        self.x_shape = x_shape  # (mb, c, h, w)
        self.y_dtype = np.dtype(y_dtype)
        self.mb = mb
        x_bytes = int(np.prod(x_shape)) * 4
        self._x_raw = mp.RawArray(ctypes.c_byte, slots * x_bytes)
        self._y_raw = mp.RawArray(ctypes.c_byte, slots * mb * self.y_dtype.itemsize)
        self.free = ctx.Queue()
        self.full = ctx.Queue()
        for slot in range(slots):
            self.free.put(slot)
        self._views = None

    def _buffers(self):
        if self._views is None:
            xv = np.frombuffer(self._x_raw, dtype=np.float32).reshape(
                self.slots, *self.x_shape
            )
            yv = np.frombuffer(self._y_raw, dtype=self.y_dtype).reshape(
                self.slots, self.mb
            )
            self._views = (xv, yv)
        return self._views

    def put(self, x: np.ndarray, y: np.ndarray, liveness=None) -> None:
        slot = _guarded_get(self.free, liveness)
        xv, yv = self._buffers()
        n = len(x)
        xv[slot, :n] = x
        yv[slot, :n] = y
        self.full.put((slot, n))

    def put_done(self) -> None:
        self.full.put(None)

    def get(self, liveness=None):
        item = _guarded_get(self.full, liveness)
        if item is None:
            return None
        slot, n = item
        xv, yv = self._buffers()
        x = xv[slot, :n].copy()
        y = yv[slot, :n].copy()
        self.free.put(slot)
        return x, y


def _guarded_get(q, liveness=None):
    """Blocking queue get; with a liveness list, fail fast on dead peers."""
    if liveness is None:
        return q.get()
    while True:
        try:
            return q.get(timeout=_POLL_S)
        except queue_mod.Empty:
            _raise_if_dead(liveness)


def _guarded_recv(conn, proc, liveness):
    """Blocking receive of ``proc``'s outcome; fail fast on dead peers."""
    while not conn.poll(_POLL_S):
        _raise_if_dead(liveness)
    try:
        return conn.recv()
    except EOFError:
        # The pipe closed without an outcome: the worker is gone.
        proc.join(timeout=_JOIN_S)
        _raise_if_dead(liveness)
        raise ConfigError(f"multiprocess stage worker {proc.name} sent no result") from None


def _raise_if_dead(liveness) -> None:
    for proc in liveness:
        if proc.exitcode is not None and proc.exitcode != 0:
            raise ConfigError(
                f"multiprocess stage worker {proc.name} died with "
                f"exit code {proc.exitcode}"
            )


def _train_stage(system, stage_blocks, mb, epochs, inlink, outlink):
    """Train one stage's blocks over the incoming micro-batch stream.

    Returns the stage's outcome: per-block ``(n_batches, loss_sum)``
    accumulators under ``stats``, its simulated elapsed time, and the
    host seconds it spent training (``busy_s``, inside ``train_batch``)
    and on its rings (``wait_s``, inside ``get``/``put``).  Runs
    identically in the parent (stage 0 drives the DataLoader instead of
    an inlink) and in forked children.
    """
    sim = ExecutionSimulator(system.platform)
    # One arena for the stage: its blocks take turns per micro-batch.
    pools = ({}, {})
    workers = []
    for block in stage_blocks:
        worker = system._build_worker(block, sim, pools)
        for unit in worker.units:
            unit.train()
        workers.append((block, worker))
    stats = {block.index: [0, 0.0] for block, _ in workers}
    host = {"busy_s": 0.0, "wait_s": 0.0}

    def consume(x, y):
        t0 = time.perf_counter()
        for block, worker in workers:
            x, loss, _ = worker.train_batch(x, y)
            entry = stats[block.index]
            entry[0] += 1
            entry[1] += float(loss)
        t1 = time.perf_counter()
        host["busy_s"] += t1 - t0
        if outlink is not None:
            outlink.put(x, y)
            host["wait_s"] += time.perf_counter() - t1

    if inlink is None:
        cfg = system.config
        for epoch in range(epochs):
            epoch_rng = spawn_rng(cfg.seed, f"mp/epoch{epoch}")
            loader = DataLoader(
                system.data.x_train,
                system.data.y_train,
                mb,
                shuffle=True,
                rng=epoch_rng,
            )
            for x, y in loader:
                consume(x, y)
    else:
        while True:
            t0 = time.perf_counter()
            item = inlink.get()
            host["wait_s"] += time.perf_counter() - t0
            if item is None:
                break
            consume(*item)
    if outlink is not None:
        outlink.put_done()
    return {"stats": stats, "sim_elapsed": sim.elapsed, **host}


def _stage_worker(system, stage_blocks, mb, epochs, inlink, outlink, result):
    """Child-process entry: train (each stage's workers attach their own
    workspaces, after the fork), then ship trained state upstream.

    The outcome goes through the stage's own pipe, pickled on this
    thread: a queue would pickle it on a feeder thread, in a fresh malloc
    arena whose megabytes of new pages the child's RSS would carry."""
    try:
        layers = [i for b in stage_blocks for i in b.layer_indices]
        payload = {
            **_train_stage(system, stage_blocks, mb, epochs, inlink, outlink),
            "layers": {i: system.specs[i].module.state_dict() for i in layers},
            "aux": {i: system.aux_heads[i].state_dict() for i in layers},
        }
        result.send(payload)
    except BaseException:
        traceback.print_exc(file=sys.stderr)
        try:
            result.send(None)
        finally:
            os._exit(1)


def run_block_parallel(
    system,
    epochs: int,
    processes: int | None = None,
    microbatch: int | None = None,
    slots: int = DEFAULT_SLOTS,
) -> NeuroFluxReport:
    """Train ``system`` (a :class:`~repro.core.controller.NeuroFlux`)
    with blocks fanned over worker processes; returns the standard
    :class:`NeuroFluxReport` with wall-clock figures in
    ``report.result.extras``.  Runs inside the controller's one run
    frame, like every other schedule.
    """
    if slots < 1:
        raise ConfigError("slots must be >= 1")
    if not fork_available():
        raise ConfigError(
            "the multiprocess executor needs the fork start method "
            "(POSIX); this platform does not provide it"
        )
    plan = system.plan()
    blocks = plan[0]
    mb = int(microbatch) if microbatch else min(b.batch_size for b in blocks)
    if mb < 1:
        raise ConfigError(f"microbatch must be >= 1, got {microbatch}")
    n_stages = (
        processes if processes is not None else min(usable_cores(), len(blocks))
    )
    stages = plan_stages(blocks, system.specs, list(system.aux_heads), n_stages, mb)

    with system._run_frame(epochs, "neuroflux-mp", plan, mb) as (report, _, _):
        wall_t0 = time.perf_counter()
        with one_thread() as controllable:
            threads = threads_in_force()
            stage_stats = _run_stages(system, stages, mb, epochs, slots)
        wall_clock_s = time.perf_counter() - wall_t0
        _book_stages(system, report, stages, stage_stats, mb)
        report.result.extras.update(
            wall_clock_s=wall_clock_s,
            blas_threads=threads,
            blas_controllable=controllable,
            processes=len(stages),
            cores=usable_cores(),
            stage_busy_s=[stage_stats[sid]["busy_s"] for sid in range(len(stages))],
            stage_wait_s=[stage_stats[sid]["wait_s"] for sid in range(len(stages))],
            microbatch=mb,
            schedule="mp-pipelined",
            stages=[[b.index for b in stage] for stage in stages],
        )
    _emit_trace(report, stages)
    return report


def _run_stages(system, stages, mb, epochs, slots) -> dict:
    """Fork stages 1.., train stage 0 here, collect every stage's outcome
    (loading the children's trained state into ``system``)."""
    ctx = mp.get_context("fork")
    y_dtype = system.data.y_train.dtype
    rings: list[_ActivationRing] = []
    for stage in stages[1:]:
        first = system.specs[stage[0].first_layer]
        x_shape = (mb, first.in_channels, *first.in_hw)
        rings.append(_ActivationRing(ctx, slots, x_shape, y_dtype, mb))

    procs: list = []
    results: list = []
    try:
        for sid in range(1, len(stages)):
            inlink = rings[sid - 1]
            outlink = rings[sid] if sid < len(stages) - 1 else None
            result, child_end = ctx.Pipe(duplex=False)
            proc = ctx.Process(
                target=_stage_worker,
                name=f"repro-stage{sid}",
                args=(system, stages[sid], mb, epochs, inlink, outlink, child_end),
            )
            proc.start()
            child_end.close()
            procs.append(proc)
            results.append(result)

        # Stage 0 runs here: the parent drives the data loader, trains
        # its own blocks in place, and feeds the first ring.
        outlink = rings[0] if rings else None
        if outlink is not None:
            # Parent-side puts watch child liveness to avoid
            # deadlocking on a full ring if a stage dies.
            original_put = outlink.put
            outlink.put = lambda x, y: original_put(x, y, liveness=procs)
        stage_stats = {0: _train_stage(system, stages[0], mb, epochs, None, outlink)}

        for sid, (proc, result) in enumerate(zip(procs, results), start=1):
            payload = _guarded_recv(result, proc, procs)
            if payload is None:
                raise ConfigError(
                    f"multiprocess stage {sid} failed (see worker traceback)"
                )
            for i, shipped in payload.pop("layers").items():
                system.specs[i].module.load_state_dict(shipped)
            for i, shipped in payload.pop("aux").items():
                system.aux_heads[i].load_state_dict(shipped)
            stage_stats[sid] = payload
        for proc in procs:
            proc.join(timeout=_JOIN_S)
    finally:
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=_JOIN_S)
        for result in results:
            result.close()
    return stage_stats


def _book_stages(system, report: NeuroFluxReport, stages, stage_stats, mb) -> None:
    """Fold the stages' outcomes into the frame's report."""
    result = report.result
    # Simulated makespan: the pipeline's slowest stage bounds the clock.
    # It is all compute (activation handoff is shared memory, not
    # simulated communication); the frame already booked profiling.
    result.sim_time_s = max(s["sim_elapsed"] for s in stage_stats.values())
    result.ledger.compute = result.sim_time_s
    # Peak simulated residency: every stage holds all its blocks
    # resident at once (they interleave per micro-batch).
    result.peak_memory_bytes = max(
        sum(system._block_residency_bytes(b, mb) for b in stage) for stage in stages
    )
    for sid, stage in enumerate(stages):
        stats, elapsed = stage_stats[sid]["stats"], stage_stats[sid]["sim_elapsed"]
        stage_total = sum(n for n, _ in stats.values()) or 1
        for block in stage:
            n_batches, loss_sum = stats[block.index]
            report.block_reports.append(
                BlockReport(
                    index=block.index,
                    layer_indices=list(block.layer_indices),
                    batch_size=mb,
                    sim_time_s=elapsed * (n_batches / stage_total),
                    cache_bytes=0,
                    mean_loss=loss_sum / n_batches if n_batches else float("nan"),
                )
            )
    report.block_reports.sort(key=lambda r: r.index)


def _emit_trace(report: NeuroFluxReport, stages) -> None:
    """Replay the simulated timeline into the active tracer, if any.

    Child-process simulators cannot reach the parent's tracer, so the
    parent reconstructs the timeline post-hoc from the per-block
    simulated times: one track per stage process, each block's span laid
    end to end (consecutive spans share endpoints, like the simulator's
    own ledger-clocked spans -- monotone and non-overlapping by
    construction).
    """
    from repro.obs.trace import active_tracer

    tracer = active_tracer()
    if tracer is None:
        return
    by_index = {r.index: r for r in report.block_reports}
    tracer.instant(
        "stage-plan",
        "runtime-decision",
        "proc0",
        0.0,
        attrs={"stages": report.result.extras["stages"]},
    )
    for sid, stage in enumerate(stages):
        track = f"proc{sid}"
        cursor = report.profiling_time_s if sid == 0 else 0.0
        if sid == 0:
            tracer.add_span("profiling", "profiling", track, 0.0, cursor)
        for block in stage:
            span_s = by_index[block.index].sim_time_s
            tracer.add_span(
                f"block{block.index}", "train", track, cursor, cursor + span_s
            )
            cursor += span_s
