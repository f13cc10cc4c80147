"""One callback protocol for every subsystem.

Before this module existed each subsystem grew its own hook style: the
sequential controller passed an ``on_batch`` callable into
:meth:`BlockWorker.train_pass`, the pipelined path handed an
``on_epoch_end`` closure to the executor, and the adaptive runtime was
wired through dedicated per-step methods the executor special-cased.
All of those emit through *one* protocol
now: anything that wants to observe a run -- a progress bar, a metrics
logger, the adaptive runtime itself -- subclasses :class:`Callback` and
overrides the hooks it cares about.

Hook order over one job::

    on_job_start(context)               # once, from repro.api.run
      on_batch(info)                    # every optimizer step / stage step
      on_epoch_end(epoch, t, metrics)   # sequential epochs, pipeline
                                        # epochs, federated rounds
      on_block_trained(block_report)    # sequential schedule only
      on_event(event, t)                # runtime fault/load injections
      on_migration(record, t)           # runtime block moves
    on_job_end(context)                 # once, context.report set

This module is import-light on purpose (no numpy, no repro internals):
the training substrate imports it, so it must sit below everything.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable


@dataclass(frozen=True)
class BatchInfo:
    """One trained batch, as seen by :meth:`Callback.on_batch`.

    ``scope`` is ``"sequential"`` when the batch came from the
    block-after-block loop (``block_index`` is the block being trained at
    its own adaptive batch size) and ``"stage"`` when it came from the
    pipelined executor (``block_index`` is the stage, the batch is one
    micro-batch).  ``last_stage`` is True for sequential batches and for
    the final stage of a pipelined micro-batch -- i.e. exactly once per
    unit of training progress.
    """

    scope: str
    block_index: int
    n_done: int
    step_s: float
    n_samples: int
    last_stage: bool = True


class Callback:
    """Base class: every hook is a no-op; override what you observe.

    Hooks must not mutate training state -- they observe.  (The adaptive
    runtime is the one sanctioned exception: it subscribes through this
    same protocol but owns placement/migration side effects by design.)
    """

    def on_job_start(self, context) -> None:
        """A job is about to execute.  ``context`` is the
        :class:`repro.api.registry.JobContext` carrying the spec and the
        materialized system/cluster."""

    def on_batch(self, info: BatchInfo) -> None:
        """One optimizer step completed (see :class:`BatchInfo`)."""

    def on_epoch_end(self, epoch: int, time_s: float, metrics: dict) -> None:
        """An epoch (or federated round) finished.  ``metrics`` is a dict
        (``loss``, ``accuracy``, ...); earlier callbacks in the list may
        enrich it in place before later ones observe it."""

    def on_block_trained(self, block_report) -> None:
        """A sequential-schedule block finished training
        (:class:`repro.core.report.BlockReport`)."""

    def on_event(self, event, time_s: float) -> None:
        """The runtime injected a fault/load event
        (:mod:`repro.runtime.events`)."""

    def on_migration(self, record, time_s: float) -> None:
        """The runtime moved a block
        (:class:`repro.runtime.migrate.MigrationRecord`)."""

    def on_job_end(self, context) -> None:
        """The job finished; ``context.report`` holds the result."""


#: The hook names fanned out by :class:`CallbackList` -- also the public
#: surface a custom callback may override.
HOOKS = (
    "on_job_start",
    "on_batch",
    "on_epoch_end",
    "on_block_trained",
    "on_event",
    "on_migration",
    "on_job_end",
)


class CallbackList(Callback):
    """Fans every hook out to its members, in order.

    Internal subscribers (the controller's history recorder, the adaptive
    runtime) are placed before user callbacks, so users observe enriched
    metrics and post-migration state.
    """

    def __init__(self, callbacks: Iterable[Callback] | Callback | None = None):
        if callbacks is None:
            members: list[Callback] = []
        elif isinstance(callbacks, Callback) and not isinstance(callbacks, CallbackList):
            members = [callbacks]
        elif isinstance(callbacks, CallbackList):
            members = list(callbacks.callbacks)
        else:
            members = list(callbacks)
        for cb in members:
            _check_callback(cb)
        self.callbacks: list[Callback] = members

    def __bool__(self) -> bool:
        return bool(self.callbacks)

    def __len__(self) -> int:
        return len(self.callbacks)

    def __iter__(self):
        return iter(self.callbacks)

    def append(self, callback: Callback) -> None:
        _check_callback(callback)
        self.callbacks.append(callback)

    # -- fan-out -----------------------------------------------------------
    def on_job_start(self, context) -> None:
        for cb in self.callbacks:
            cb.on_job_start(context)

    def on_batch(self, info: BatchInfo) -> None:
        for cb in self.callbacks:
            cb.on_batch(info)

    def on_epoch_end(self, epoch: int, time_s: float, metrics: dict) -> None:
        for cb in self.callbacks:
            cb.on_epoch_end(epoch, time_s, metrics)

    def on_block_trained(self, block_report) -> None:
        for cb in self.callbacks:
            cb.on_block_trained(block_report)

    def on_event(self, event, time_s: float) -> None:
        for cb in self.callbacks:
            cb.on_event(event, time_s)

    def on_migration(self, record, time_s: float) -> None:
        for cb in self.callbacks:
            cb.on_migration(record, time_s)

    def on_job_end(self, context) -> None:
        for cb in self.callbacks:
            cb.on_job_end(context)


def _check_callback(cb) -> None:
    if not isinstance(cb, Callback):
        raise TypeError(
            f"callbacks must subclass repro.api.Callback, got {type(cb).__name__}"
        )


def as_callback_list(callbacks) -> CallbackList:
    """Coerce ``None`` / a single callback / a sequence into a list."""
    if isinstance(callbacks, CallbackList):
        return callbacks
    return CallbackList(callbacks)


@dataclass
class RecordingCallback(Callback):
    """Records every hook invocation -- handy for tests and debugging."""

    calls: list[tuple] = field(default_factory=list)

    def on_job_start(self, context) -> None:
        self.calls.append(("on_job_start", context))

    def on_batch(self, info: BatchInfo) -> None:
        self.calls.append(("on_batch", info))

    def on_epoch_end(self, epoch: int, time_s: float, metrics: dict) -> None:
        self.calls.append(("on_epoch_end", epoch, time_s, dict(metrics)))

    def on_block_trained(self, block_report) -> None:
        self.calls.append(("on_block_trained", block_report))

    def on_event(self, event, time_s: float) -> None:
        self.calls.append(("on_event", event, time_s))

    def on_migration(self, record, time_s: float) -> None:
        self.calls.append(("on_migration", record, time_s))

    def on_job_end(self, context) -> None:
        self.calls.append(("on_job_end", context))

    def names(self) -> list[str]:
        return [c[0] for c in self.calls]
