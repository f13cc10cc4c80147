"""Execution-time simulator.

Substitutes for the paper's Jetson/Raspberry-Pi testbed: every training
step, data transfer and storage operation is converted to simulated seconds
from the platform descriptor.  Trainers accumulate these into a
:class:`TimeLedger`, which the Figure 11/12 benchmarks read as "training
time".  Absolute values are model estimates; the comparisons the paper
makes (method A vs method B on the same platform) are preserved because all
methods share the same cost model.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from repro.errors import ConfigError
from repro.hw.platforms import Link, Platform


@dataclass
class TimeLedger:
    """Accumulated simulated time, split by cost category (seconds)."""

    compute: float = 0.0
    data_io: float = 0.0
    cache_io: float = 0.0
    overhead: float = 0.0
    profiling: float = 0.0
    serving: float = 0.0
    communication: float = 0.0

    @property
    def total(self) -> float:
        return sum(getattr(self, name) for name in _CATEGORIES)

    def merge(self, other: "TimeLedger") -> None:
        for name in _CATEGORIES:
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def as_dict(self) -> dict[str, float]:
        d = {name: getattr(self, name) for name in _CATEGORIES}
        d["total"] = self.total
        return d


#: The ledger's categories, reflected once: ``total`` is read per batch
#: by the workers, too often to walk ``dataclasses.fields`` every time.
_CATEGORIES: tuple[str, ...] = tuple(f.name for f in fields(TimeLedger))


def _check_count(count: int) -> None:
    if not isinstance(count, int) or count < 1:
        raise ConfigError(f"step count must be an int >= 1, got {count!r}")


def block_input_mode(block_index: int, cached: bool = True) -> str:
    """The input mode block ``block_index`` trains on: raw samples for the
    first block, the previous block's activations for the rest -- unless
    ``cached`` is off (the sequential run without the activation cache
    re-derives every block's inputs from raw samples)."""
    return "prefetch-cache" if cached and block_index > 0 else "prefetch-raw"


@dataclass
class ExecutionSimulator:
    """Converts work (FLOPs, bytes, dispatches) to simulated seconds.

    ``time_scale`` is the perturbation hook used by :mod:`repro.runtime`:
    every *local* charge (training/inference/serving steps, cache I/O) is
    multiplied by it, so a thermal throttle or co-located load spike can
    be injected into a live device ledger without touching the platform
    descriptor.  Link transfers (:meth:`add_communication`) are not
    scaled -- a slow GPU does not slow the NIC.  At the default ``1.0``
    every charge is bit-identical to the unperturbed model.
    """

    platform: Platform
    ledger: TimeLedger = field(default_factory=TimeLedger)
    time_scale: float = 1.0
    #: Optional span sink (:class:`repro.obs.trace.Tracer`).  ``None`` by
    #: default: every charge path guards on it with one ``is not None``
    #: check, the zero-when-disabled contract ``repro bench obs`` enforces.
    tracer: object | None = field(default=None, repr=False, compare=False)
    #: Trace track charges land on (one per simulated device).
    trace_track: str = field(default="dev0", repr=False, compare=False)
    #: Span-name override while a scope is active (e.g. ``block2``).
    trace_scope: str | None = field(default=None, repr=False, compare=False)

    def attach_tracer(self, tracer, track: str, scope: str | None = None) -> None:
        """Route this simulator's charges to ``tracer`` as spans on ``track``."""
        self.tracer = tracer
        self.trace_track = track
        self.trace_scope = scope

    def detach_tracer(self) -> None:
        self.tracer = None
        self.trace_scope = None

    def _emit_span(self, category: str, seconds: float, name: str | None = None) -> None:
        """Record the charge just booked as a span ending at ledger-now.

        The device's timeline *is* its ledger total, so the span covers
        ``[total - seconds, total]`` -- by construction monotone and
        non-overlapping with every earlier span on this track.
        """
        end = self.ledger.total
        self.tracer.add_span(
            name or self.trace_scope or category,
            category,
            self.trace_track,
            end - seconds,
            end,
        )

    def charge(self, category: str, seconds: float,
               span: str | None = None, name: str | None = None) -> float:
        """Book ``seconds`` under a ledger ``category`` directly.

        The generic seam for costs with no dedicated ``add_*`` helper
        (block loads, custom extensions).  ``span`` optionally emits a
        trace span of that category; ``name`` overrides its label.
        """
        if category not in _CATEGORIES:
            raise ConfigError(f"unknown ledger category {category!r}")
        if seconds < 0:
            raise ConfigError("charged seconds must be non-negative")
        setattr(self.ledger, category, getattr(self.ledger, category) + seconds)
        if span is not None and self.tracer is not None:
            self._emit_span(span, seconds, name)
        return seconds

    def perturb(self, scale: float) -> None:
        """Set the local-work slowdown factor (``1.0`` = nominal)."""
        if scale <= 0:
            raise ConfigError(f"time scale must be positive, got {scale}")
        self.time_scale = float(scale)

    def _scaled(self, seconds: float) -> float:
        # Guarded so the unperturbed path stays exactly the seed model.
        return seconds * self.time_scale if self.time_scale != 1.0 else seconds

    def compute_time(self, flops: float) -> float:
        if flops < 0:
            raise ConfigError("flops must be non-negative")
        return flops / self.platform.effective_flops

    def transfer_time(self, nbytes: float) -> float:
        return nbytes / self.platform.host_bandwidth

    def storage_time(self, nbytes: float, n_ops: int = 1) -> float:
        return nbytes / self.platform.storage_bandwidth + n_ops * self.platform.storage_latency

    # -- accumulation helpers ------------------------------------------------
    #: Fraction of the dataloader overhead paid per input mode.
    #: "loader": synchronous raw-image loading (the BP / classic-LL loop).
    #: "prefetch-raw": NeuroFlux's pipelined prefetcher over raw images
    #: (decode/augment overlapped with training, Section 3.2).
    #: "prefetch-cache": prefetcher over cached activations (no decode at
    #: all, only rebatching).
    INPUT_MODE_OVERHEAD = {
        "loader": 1.0,
        "prefetch-raw": 0.25,
        "prefetch-cache": 0.125,
    }

    def add_training_step(
        self,
        flops: float,
        batch_bytes: float,
        n_kernels: int,
        input_mode: str = "loader",
        count: int = 1,
    ) -> float:
        """Account one optimizer step: compute + staging + dispatch overhead.

        ``input_mode`` selects how much of the per-batch dataloader cost
        applies (see :data:`INPUT_MODE_OVERHEAD`).  ``count`` books that
        many identical steps in this one charge (``count`` x the per-step
        seconds in each category, one span), so a closed-form caller does
        not loop over an epoch; the arguments stay those of a single step.
        """
        if input_mode not in self.INPUT_MODE_OVERHEAD:
            raise ConfigError(f"unknown input mode {input_mode!r}")
        _check_count(count)
        compute = self._scaled(self.compute_time(flops)) * count
        io = self._scaled(self.transfer_time(batch_bytes)) * count
        batch_cost = (
            self.platform.batch_overhead * self.INPUT_MODE_OVERHEAD[input_mode]
        )
        overhead = self._scaled(
            batch_cost + n_kernels * self.platform.kernel_launch_overhead
        ) * count
        self.ledger.compute += compute
        self.ledger.data_io += io
        self.ledger.overhead += overhead
        total = compute + io + overhead
        if self.tracer is not None:
            self._emit_span("train", total)
        return total

    def add_inference_batch(
        self, flops: float, batch_bytes: float, n_kernels: int, count: int = 1
    ) -> float:
        """Account ``count`` identical inference batches (no per-batch
        training overhead) in one charge."""
        _check_count(count)
        compute = self._scaled(self.compute_time(flops)) * count
        io = self._scaled(self.transfer_time(batch_bytes)) * count
        overhead = self._scaled(n_kernels * self.platform.kernel_launch_overhead) * count
        self.ledger.compute += compute
        self.ledger.data_io += io
        self.ledger.overhead += overhead
        total = compute + io + overhead
        if self.tracer is not None:
            self._emit_span("inference", total)
        return total

    def add_serving_batch(self, flops: float, batch_bytes: float, n_kernels: int) -> float:
        """Account one served inference batch under the ``serving`` category.

        Same cost shape as :meth:`add_inference_batch`, but booked
        separately so deployment-time load is distinguishable from
        training-time evaluation in the ledger.
        """
        t = self._scaled(
            self.compute_time(flops)
            + self.transfer_time(batch_bytes)
            + n_kernels * self.platform.kernel_launch_overhead
        )
        self.ledger.serving += t
        if self.tracer is not None:
            self._emit_span("serving", t)
        return t

    def add_communication(self, nbytes: float, link: Link) -> float:
        """Account an inter-device transfer (activations, parameters).

        Charged to the ``communication`` category of *this* device's ledger;
        by convention the sender pays (the receiver merely waits, which the
        pipeline executor surfaces as bubble time rather than ledger cost).
        """
        t = link.transfer_time(nbytes)
        self.ledger.communication += t
        if self.tracer is not None:
            self._emit_span("communication", t)
        return t

    def add_cache_write(self, nbytes: float, n_files: int = 1, count: int = 1) -> float:
        """Account ``count`` identical writes of ``nbytes`` in one charge."""
        _check_count(count)
        t = self._scaled(self.storage_time(nbytes, n_files)) * count
        self.ledger.cache_io += t
        if self.tracer is not None:
            self._emit_span("cache_io", t, name="cache-write")
        return t

    def add_cache_read(self, nbytes: float, n_files: int = 1, count: int = 1) -> float:
        """Account ``count`` identical reads of ``nbytes`` in one charge."""
        _check_count(count)
        t = self._scaled(self.storage_time(nbytes, n_files)) * count
        self.ledger.cache_io += t
        if self.tracer is not None:
            self._emit_span("cache_io", t, name="cache-read")
        return t

    def add_profiling(self, seconds: float) -> float:
        self.ledger.profiling += seconds
        if self.tracer is not None:
            self._emit_span("profiling", seconds)
        return seconds

    @property
    def elapsed(self) -> float:
        return self.ledger.total
