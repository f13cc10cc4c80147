"""Simulated GPU memory allocator.

Stands in for the CUDA caching allocator the paper's Profiler measures
against.  Allocations are rounded to the allocator block size (CUDA uses
512-byte granularity), a budget is enforced (exceeding it raises
:class:`~repro.errors.MemoryBudgetExceeded`, the stand-in for a CUDA OOM),
and the high-water mark is tracked -- the equivalent of
``torch.cuda.max_memory_allocated()``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.errors import ConfigError, MemoryBudgetExceeded

ALLOCATOR_ALIGNMENT = 512


@dataclass
class _Allocation:
    ident: int
    tag: str
    nbytes: int


@dataclass
class SimulatedGpu:
    """Budgeted allocator with peak tracking.

    Args:
        budget_bytes: maximum simultaneously-resident bytes; ``None`` means
            unlimited (used when only the peak is of interest).
        alignment: allocation granularity in bytes.
        base_reserved: fixed overhead counted as always-resident (driver
            context, cuDNN handles); zero by default so analytic and
            measured values agree up to alignment.
    """

    budget_bytes: int | None = None
    alignment: int = ALLOCATOR_ALIGNMENT
    base_reserved: int = 0
    _live: dict[int, _Allocation] = field(default_factory=dict, repr=False)
    _in_use: int = 0
    _peak: int = 0
    _ids: "itertools.count[int]" = field(default_factory=itertools.count, repr=False)

    def __post_init__(self) -> None:
        if self.alignment < 1:
            raise ConfigError("alignment must be >= 1")
        if self.budget_bytes is not None and self.budget_bytes < 0:
            raise ConfigError("budget must be >= 0")
        self._in_use = self.base_reserved
        self._peak = self.base_reserved

    def _aligned(self, nbytes: int) -> int:
        blocks = -(-int(nbytes) // self.alignment)
        return blocks * self.alignment

    def _effective_budget(self) -> int | None:
        """The budget rounded up to allocator granularity.

        A byte budget that is not a multiple of the block size cannot be
        filled exactly; rounding up means a request of exactly
        ``budget_bytes`` logical bytes is admissible, matching how
        feasibility is computed analytically.
        """
        if self.budget_bytes is None:
            return None
        return self._aligned(self.budget_bytes)

    def alloc(self, nbytes: int, tag: str = "") -> int:
        """Reserve memory; returns a handle for :meth:`free`."""
        if nbytes < 0:
            raise ConfigError("cannot allocate a negative size")
        size = self._aligned(nbytes)
        budget = self._effective_budget()
        if budget is not None and self._in_use + size > budget:
            raise MemoryBudgetExceeded(size, self._in_use, self.budget_bytes, tag)
        ident = next(self._ids)
        self._live[ident] = _Allocation(ident, tag, size)
        self._in_use += size
        self._peak = max(self._peak, self._in_use)
        return ident

    def free(self, ident: int) -> None:
        alloc = self._live.pop(ident, None)
        if alloc is None:
            raise ConfigError(f"double free or unknown allocation id {ident}")
        self._in_use -= alloc.nbytes

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def peak(self) -> int:
        return self._peak

    def reset_peak(self) -> None:
        self._peak = self._in_use


def measure_peak(nbyte_components: list[tuple[str, int]], gpu: SimulatedGpu) -> int:
    """Allocate a component list, read the peak, then release everything.

    This is the Profiler's 'run one training step and read the high-water
    mark' primitive: each logical tensor is allocated separately so the
    alignment quantization matches a real allocator's accounting.  The
    peak is read from what is live when the call starts, and what was
    allocated is freed even when an allocation exceeds the budget.
    """
    gpu.reset_peak()
    handles = []
    try:
        for tag, nbytes in nbyte_components:
            handles.append(gpu.alloc(nbytes, tag))
        return gpu.peak
    finally:
        for h in handles:
            gpu.free(h)
