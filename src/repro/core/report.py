"""Structured results of a NeuroFlux run."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.api.report import Report
from repro.api.report import json_num as _num
from repro.core.partitioner import Block
from repro.training.common import TrainResult


@dataclass
class BlockReport:
    """Per-block training record."""

    index: int
    layer_indices: list[int]
    batch_size: int
    sim_time_s: float
    cache_bytes: int
    mean_loss: float


@dataclass
class NeuroFluxReport(Report):
    """Everything a NeuroFlux run produced.

    ``result`` carries the method-comparable fields (history, simulated
    time, peak memory); the remaining fields capture NeuroFlux-specific
    outputs: the partition, per-layer exit accuracies, the selected exit
    and its compression factor, cache and profiling overheads
    (Section 6.4).
    """

    kind = "neuroflux"

    result: TrainResult
    blocks: list[Block] = field(default_factory=list)
    block_reports: list[BlockReport] = field(default_factory=list)
    layer_val_accuracies: list[float] = field(default_factory=list)
    exit_layer: int = -1
    exit_params: int = 0
    exit_val_accuracy: float = float("nan")
    exit_test_accuracy: float = float("nan")
    full_model_params: int = 0
    cache_bytes_written: int = 0
    dataset_bytes: int = 0
    profiling_time_s: float = 0.0

    # -- Report ----------------------------------------------------------------
    # The method-comparable half is the ``TrainResult``'s own; this class
    # adds what only NeuroFlux produces.
    @property
    def wall_clock_s(self) -> float:
        """End-to-end simulated seconds of the run."""
        return self.result.wall_clock_s

    @property
    def peak_memory_bytes(self) -> int:
        """Simulated GPU high-water mark."""
        return self.result.peak_memory_bytes

    def ledger_summary(self) -> dict[str, float]:
        """Simulated seconds by cost category (includes ``total``)."""
        return self.result.ledger_summary()

    def add_metrics(self, reg) -> None:
        self.result.add_metrics(reg)
        reg.counter("blocks_total").inc(len(self.blocks))
        reg.counter("cache_bytes_written_total").inc(self.cache_bytes_written)
        reg.gauge("exit_layer").set(self.exit_layer)
        reg.gauge("exit_test_accuracy").set(self.exit_test_accuracy)
        reg.gauge("compression_factor").set(self.compression_factor)
        block_seconds = reg.histogram("block_train_seconds")
        for block_report in self.block_reports:
            block_seconds.observe(block_report.sim_time_s)

    def json_fields(self) -> dict:
        """The result's fields, plus the partition, the exits and the
        Section 6.4 overheads."""
        return {
            **self.result.json_fields(),
            "blocks": [
                {"layers": list(b.layer_indices), "batch_size": b.batch_size}
                for b in self.blocks
            ],
            "layer_val_accuracies": [_num(a) for a in self.layer_val_accuracies],
            "exit_layer": self.exit_layer,
            "exit_params": self.exit_params,
            "full_model_params": self.full_model_params,
            "exit_val_accuracy": _num(self.exit_val_accuracy),
            "exit_test_accuracy": _num(self.exit_test_accuracy),
            "compression_factor": _num(self.compression_factor),
            "cache_bytes_written": self.cache_bytes_written,
            "dataset_bytes": self.dataset_bytes,
            "profiling_time_s": _num(self.profiling_time_s),
        }

    @property
    def compression_factor(self) -> float:
        """Full-model params over exit-model params (paper Table 2)."""
        if self.exit_params <= 0:
            return float("nan")
        return self.full_model_params / self.exit_params

    @property
    def cache_overhead_ratio(self) -> float:
        """Cache storage as a multiple of the dataset size (Section 6.4)."""
        if self.dataset_bytes <= 0:
            return float("nan")
        return self.cache_bytes_written / self.dataset_bytes

    @property
    def profiling_overhead_fraction(self) -> float:
        """Profiler+Partitioner time as a fraction of the total
        (< 1.5% in the paper's experiments)."""
        total = self.result.sim_time_s
        if total <= 0:
            return float("nan")
        return self.profiling_time_s / total

    def summary(self) -> str:
        """Human-readable one-screen summary."""
        lines = [
            f"NeuroFlux run: {self.result.model_name} on "
            f"{self.result.dataset_name} ({self.result.platform_name})",
            f"  blocks: {[(b.layer_indices, b.batch_size) for b in self.blocks]}",
            f"  simulated time: {self.result.sim_time_s:.1f}s  "
            f"peak memory: {self.result.peak_memory_bytes / 2**20:.1f} MiB",
            f"  exit layer: {self.exit_layer + 1} "
            f"(val acc {self.exit_val_accuracy:.3f}, "
            f"test acc {self.exit_test_accuracy:.3f})",
            f"  params: {self.exit_params / 1e6:.2f}M vs full "
            f"{self.full_model_params / 1e6:.2f}M "
            f"({self.compression_factor:.1f}x compression)",
            f"  cache: {self.cache_bytes_written / 2**20:.1f} MiB "
            f"({self.cache_overhead_ratio:.1f}x dataset)",
            f"  profiling overhead: {100 * self.profiling_overhead_fraction:.2f}%",
        ]
        return "\n".join(lines)
