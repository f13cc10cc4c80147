"""Shared training infrastructure: the baseline run frame, evaluation,
history and results.

Every comparison in the paper follows one protocol -- pick the largest
batch that fits the budget, run epochs, report accuracy against simulated
time and peak memory -- and :class:`BaselineTrainer` is that protocol,
written once.  A baseline is what differs: see the class docstring.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.api.report import Report, json_num
from repro.data.datasets import SyntheticImageDataset
from repro.data.loader import DataLoader
from repro.errors import ConfigError, MemoryBudgetExceeded
from repro.flops.count import DEFAULT_BACKWARD_MULTIPLIER
from repro.hw.platforms import AGX_ORIN, Platform
from repro.hw.simulator import ExecutionSimulator, TimeLedger
from repro.memory.tracker import SimulatedGpu
from repro.models.base import ConvNet
from repro.obs.trace import active_tracer
from repro.utils.rng import spawn_rng

DEFAULT_BATCH_LIMIT = 256


@dataclass
class HistoryPoint:
    """One evaluation checkpoint along a training run."""

    sim_time_s: float
    epoch: float
    accuracy: float
    loss: float = float("nan")
    split: str = "val"


@dataclass
class TrainResult(Report):
    """Outcome of one training run, comparable across methods.

    ``sim_time_s`` is simulated wall-clock on the target platform (see
    :mod:`repro.hw.simulator`); ``peak_memory_bytes`` is the simulated GPU
    high-water mark.
    """

    kind = "baseline"

    method: str
    model_name: str
    dataset_name: str
    platform_name: str
    history: list[HistoryPoint] = field(default_factory=list)
    final_accuracy: float = float("nan")
    sim_time_s: float = 0.0
    peak_memory_bytes: int = 0
    batch_size: int = 0
    epochs: int = 0
    num_parameters: int = 0
    ledger: TimeLedger = field(default_factory=TimeLedger)
    extras: dict = field(default_factory=dict)

    def accuracy_at_time(self, t: float) -> float:
        """Best evaluated accuracy achieved within simulated time ``t``."""
        best = 0.0
        for point in self.history:
            if point.sim_time_s <= t:
                best = max(best, point.accuracy)
        return best

    # -- Report ----------------------------------------------------------------
    @property
    def wall_clock_s(self) -> float:
        """End-to-end simulated seconds of the run."""
        return self.sim_time_s

    def ledger_summary(self) -> dict[str, float]:
        """Simulated seconds by cost category (includes ``total``)."""
        return self.ledger.as_dict()

    def add_metrics(self, reg) -> None:
        reg.counter("epochs_total").inc(self.epochs)
        reg.gauge("batch_size").set(self.batch_size)
        reg.gauge("final_accuracy").set(self.final_accuracy)

    def json_fields(self) -> dict:
        """The method-comparable fields below the unified head, for this
        report and for the NeuroFlux reports that carry a result."""
        out = {
            "method": self.method,
            "model": self.model_name,
            "dataset": self.dataset_name,
            "platform": self.platform_name,
            "epochs": self.epochs,
            "batch_size": self.batch_size,
            "num_parameters": self.num_parameters,
            "final_accuracy": json_num(self.final_accuracy),
            "history": [
                {
                    "sim_time_s": json_num(p.sim_time_s),
                    "epoch": json_num(p.epoch),
                    "accuracy": json_num(p.accuracy),
                    "loss": json_num(p.loss),
                    "split": p.split,
                }
                for p in self.history
            ],
        }
        # Executor-specific facts (microbatching's logical batch, the
        # multiprocess run's host clocks); absent when there are none.
        if self.extras:
            out["extras"] = dict(self.extras)
        return out

    def summary(self) -> str:
        """Human-readable one-screen summary."""
        return (
            f"{self.method} run: {self.model_name} on {self.dataset_name} "
            f"({self.platform_name})\n"
            f"  batch size: {self.batch_size}  epochs: {self.epochs} "
            f"({len(self.history)} evaluated)\n"
            f"  simulated time: {self.sim_time_s:.1f}s  "
            f"peak memory: {self.peak_memory_bytes / 2**20:.1f} MiB\n"
            f"  test accuracy: {self.final_accuracy:.3f}  "
            f"params: {self.num_parameters / 1e6:.2f}M"
        )


def evaluate_classifier(
    forward_fn,
    x: np.ndarray,
    y: np.ndarray,
    batch_size: int = 256,
) -> float:
    """Top-1 accuracy of ``forward_fn`` (logits) over ``(x, y)``."""
    correct = 0
    for start in range(0, len(x), batch_size):
        xb = x[start : start + batch_size]
        yb = y[start : start + batch_size]
        logits = forward_fn(xb)
        correct += int((np.argmax(logits, axis=1) == yb).sum())
    return correct / len(x) if len(x) else float("nan")


def max_feasible_batch(memory_fn, budget_bytes: int | None, limit: int) -> int:
    """Largest batch in [1, limit] whose ``memory_fn(batch)`` fits the budget.

    ``memory_fn`` must be monotonically non-decreasing in the batch size
    (activation memory is linear in it).  Raises
    :class:`MemoryBudgetExceeded` when even a single sample does not fit --
    the condition under which the paper reports "no data point" for a
    method (Figure 11).
    """
    if budget_bytes is None:
        return limit
    need_one = memory_fn(1)
    if need_one > budget_bytes:
        raise MemoryBudgetExceeded(need_one, 0, budget_bytes, "single-sample step")
    lo, hi = 1, limit
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if memory_fn(mid) <= budget_bytes:
            lo = mid
        else:
            hi = mid - 1
    return lo


class BaselineTrainer:
    """The run frame every comparison trainer shares.

    :meth:`train` is the whole protocol: size the batch against the
    budget, book the step's footprint on a :class:`SimulatedGpu`, then
    run epochs -- one :meth:`step` per loaded batch, charged to an
    :class:`ExecutionSimulator` at the trainer's :meth:`step_price` --
    evaluating on the validation split after each epoch and on the test
    split at the end.  A baseline supplies only what differs:

    * ``method`` (the name results carry), ``gpu_tag`` (the allocation
      tag of its training step) and ``rng_tag`` (its loader draws from
      the ``"<rng_tag>/loader"`` stream of the seed);
    * :meth:`memory_at_batch` -- peak bytes of one step at a batch size;
    * :meth:`step_price` -- per-sample FLOPs and kernel dispatches of one
      step, a pure function of the model (and heads) that the closed-form
      replays in :mod:`repro.evalsim.training_time` share;
    * :meth:`_setup` -- per-run state (optimizers, loss);
    * :meth:`step` -- train on one batch, return its loss;
    * optionally ``aux_heads`` (pooled and counted with the model) and
      :meth:`predict_logits` (how the trained model classifies).
    """

    method: str
    gpu_tag: str
    rng_tag: str
    #: Auxiliary networks trained beside the model (``None`` = no head).
    aux_heads: tuple = ()
    #: Backward-to-forward FLOP ratio this method's step is priced at.
    backward_multiplier: float = DEFAULT_BACKWARD_MULTIPLIER

    def __init__(
        self,
        model: ConvNet,
        data: SyntheticImageDataset,
        platform: Platform = AGX_ORIN,
        memory_budget: int | None = None,
        optimizer: str = "sgd-momentum",
        lr: float = 0.05,
        seed: int = 0,
    ):
        self.model = model
        self.data = data
        self.platform = platform
        self.memory_budget = memory_budget
        self.optimizer_name = optimizer
        self.lr = lr
        self.seed = seed

    # -- what a baseline supplies -------------------------------------------
    def memory_at_batch(self, batch_size: int) -> int:
        raise NotImplementedError

    def step_price(self) -> tuple[int, int]:
        """``(FLOPs per sample, kernel dispatches)`` of one training step."""
        raise NotImplementedError

    def _setup(self) -> None:
        """Build the state one run trains with (invoked once per run)."""

    def step(self, xb: np.ndarray, yb: np.ndarray) -> float:
        raise NotImplementedError

    def predict_logits(self, x: np.ndarray) -> np.ndarray:
        return self.model.forward(x)

    def _passes(self, batch_size: int) -> list[int]:
        """Samples per device pass of one full :meth:`step`: the
        memory-sized batch, unless a baseline steps on more than it can
        hold at once (microbatching) and passes it through in pieces."""
        return [batch_size]

    # -- the frame ------------------------------------------------------------
    def max_feasible_batch(self, limit: int = DEFAULT_BATCH_LIMIT) -> int:
        return max_feasible_batch(self.memory_at_batch, self.memory_budget, limit)

    def train(
        self,
        epochs: int,
        batch_size: int | None = None,
        batch_limit: int = DEFAULT_BATCH_LIMIT,
        time_budget_s: float | None = None,
    ) -> TrainResult:
        if epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if batch_size is None:
            batch_size = self.max_feasible_batch(batch_limit)
        gpu = SimulatedGpu(budget_bytes=self.memory_budget)
        gpu.free(gpu.alloc(self.memory_at_batch(batch_size), self.gpu_tag))

        self._setup()
        data = self.data
        sim = ExecutionSimulator(self.platform, tracer=active_tracer())
        passes = self._passes(batch_size)
        loader = DataLoader(
            data.x_train,
            data.y_train,
            sum(passes),
            shuffle=True,
            rng=spawn_rng(self.seed, f"{self.rng_tag}/loader"),
        )
        flops_per_sample, n_kernels = self.step_price()
        sample_bytes = data.spec.sample_bytes
        heads = [aux for aux in self.aux_heads if aux is not None]
        result = TrainResult(
            method=self.method,
            model_name=self.model.name,
            dataset_name=data.spec.name,
            platform_name=self.platform.name,
            batch_size=batch_size,
            epochs=epochs,
            peak_memory_bytes=gpu.peak,
            num_parameters=self.model.num_parameters()
            + sum(aux.num_parameters() for aux in heads),
        )
        # Workspaces for the run: per-step scratch (column matrices, GEMM
        # outputs, scatter targets) is reused across steps instead of
        # reallocated, and evaluation runs at the training batch so it
        # fits the same slots.  Results are bitwise unchanged.
        try:
            for module in (self.model, *heads):
                module.attach_workspace()
                module.train()
            loss = float("nan")
            stop = False
            for epoch in range(epochs):
                for xb, yb in loader:
                    loss = self.step(xb, yb)
                    # Each device pass is its own load + kernel charge; a
                    # short last batch ends the passes early.
                    left = len(xb)
                    for n in passes:
                        n = min(n, left)
                        if not n:
                            break
                        sim.add_training_step(
                            flops_per_sample * n, sample_bytes * n, n_kernels
                        )
                        left -= n
                    if time_budget_s is not None and sim.elapsed >= time_budget_s:
                        stop = True
                        break
                self.model.eval()
                val_acc = evaluate_classifier(
                    self.predict_logits, data.x_val, data.y_val, batch_size
                )
                self.model.train()
                result.history.append(
                    HistoryPoint(sim.elapsed, epoch + 1, val_acc, loss, "val")
                )
                if stop:
                    break
            self.model.eval()
            result.final_accuracy = evaluate_classifier(
                self.predict_logits, data.x_test, data.y_test, batch_size
            )
        finally:
            for module in (self.model, *heads):
                module.detach_workspace()
        result.sim_time_s = sim.elapsed
        result.ledger = sim.ledger
        return result
