"""The ``evalsim`` backend's engine and unified report.

One :func:`run_evalsim` call replays the Figure 11 comparison for a
single (model, dataset, platform, budget) cell: BP, classic LL and
NeuroFlux are simulated closed-form at paper scale (the
:mod:`repro.evalsim.training_time` formulas), and the block structure
the NeuroFlux arm was simulated with is reported beside them.  The
report's ``breakdown`` section is the analytic table behind the paper's
memory and deployment figures for the same cell: bytes per method at the
cell's batch, and per local layer its activation size, auxiliary FLOPs,
training bytes, fitted memory line, feasible batch, and the parameters
and throughput of the early-exit model that ends there.  Wrapped as the
``evalsim`` :mod:`repro.api` backend, this makes every analytic and
closed-form figure of the paper (``benchmarks/sweeps/*.json``) one
``repro sweep`` spec.

A method that cannot fit a single training step under the budget is the
paper's "no data point": ``feasible=False``, hours ``None`` -- never an
exception, so a budget sweep records the infeasible cells instead of
failing on them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.api.report import Report, json_num, merge_ledger_summaries
from repro.obs.trace import active_tracer


@dataclass(frozen=True)
class MethodOutcome:
    """One training method's simulated cost under the budget."""

    method: str
    feasible: bool
    hours: float | None = None
    batch_size: int | None = None
    peak_memory_bytes: int = 0

    def to_json_dict(self) -> dict:
        return {
            "method": self.method,
            "feasible": self.feasible,
            "hours": json_num(self.hours) if self.hours is not None else None,
            "batch_size": self.batch_size,
            "peak_memory_bytes": int(self.peak_memory_bytes),
        }


def _outcome(method: str, run) -> MethodOutcome:
    if run is None:
        return MethodOutcome(method=method, feasible=False)
    return MethodOutcome(
        method=method,
        feasible=True,
        hours=run.time_s / 3600.0,
        batch_size=run.batch_size,
        peak_memory_bytes=run.peak_memory_bytes,
    )


@dataclass
class EvalSimReport(Report):
    """Unified report of one closed-form training-time simulation cell."""

    kind = "evalsim"

    model_name: str
    dataset: str
    platform: str
    budget_mb: float
    epochs: int
    rho: float
    bp: MethodOutcome
    ll: MethodOutcome
    nf: MethodOutcome
    #: NeuroFlux block structure under this budget (None when even the
    #: partition is infeasible).
    n_blocks: int | None = None
    min_batch: int | None = None
    max_batch: int | None = None
    #: The NeuroFlux run's ledger (empty when NF is infeasible).
    _nf_ledger: dict | None = None
    #: Analytic memory / FLOP / deployment table of the cell
    #: (:func:`cell_breakdown`).
    breakdown: dict = field(default_factory=dict)

    # -- Report ----------------------------------------------------------------
    @property
    def wall_clock_s(self) -> float:
        """Simulated end-to-end seconds of the *NeuroFlux* run (NaN when
        even NeuroFlux cannot train under the budget)."""
        if self.nf.hours is None:
            return float("nan")
        return self.nf.hours * 3600.0

    @property
    def peak_memory_bytes(self) -> int:
        return int(self.nf.peak_memory_bytes)

    def ledger_summary(self) -> dict[str, float]:
        return merge_ledger_summaries([self._nf_ledger or {}])

    @property
    def speedup_vs_bp(self) -> float:
        if self.bp.hours is None or self.nf.hours is None:
            return float("nan")
        return self.bp.hours / self.nf.hours

    @property
    def speedup_vs_ll(self) -> float:
        if self.ll.hours is None or self.nf.hours is None:
            return float("nan")
        return self.ll.hours / self.nf.hours

    def add_metrics(self, reg) -> None:
        for outcome in (self.bp, self.ll, self.nf):
            hours = outcome.hours if outcome.hours is not None else float("nan")
            reg.gauge("evalsim_train_hours", method=outcome.method).set(hours)
            reg.gauge("evalsim_feasible", method=outcome.method).set(
                1.0 if outcome.feasible else 0.0
            )
        reg.gauge("evalsim_speedup_vs_bp").set(self.speedup_vs_bp)
        reg.gauge("evalsim_speedup_vs_ll").set(self.speedup_vs_ll)
        if self.n_blocks is not None:
            reg.gauge("evalsim_n_blocks").set(float(self.n_blocks))

    def json_fields(self) -> dict:
        def hours(outcome):
            return json_num(outcome.hours) if outcome.hours is not None else None

        return {
            "evalsim": {
                "model": self.model_name,
                "dataset": self.dataset,
                "platform": self.platform,
                "budget_mb": json_num(self.budget_mb),
                "epochs": self.epochs,
                "rho": json_num(self.rho),
                "bp": self.bp.to_json_dict(),
                "ll": self.ll.to_json_dict(),
                "nf": self.nf.to_json_dict(),
                "bp_hours": hours(self.bp),
                "ll_hours": hours(self.ll),
                "nf_hours": hours(self.nf),
                "speedup_vs_bp": json_num(self.speedup_vs_bp),
                "speedup_vs_ll": json_num(self.speedup_vs_ll),
                "n_blocks": self.n_blocks,
                "min_batch": self.min_batch,
                "max_batch": self.max_batch,
                "breakdown": self.breakdown,
            },
        }

    def summary(self) -> str:
        def fmt(outcome):
            if not outcome.feasible:
                return "OOM"
            return f"{outcome.hours:.2f} h (b{outcome.batch_size})"

        lines = [
            f"evalsim: {self.model_name} on {self.dataset} "
            f"@ {self.budget_mb:g} MB, {self.epochs} epochs "
            f"({self.platform}, simulated)",
            f"  BP        {fmt(self.bp)}",
            f"  classicLL {fmt(self.ll)}",
            f"  NeuroFlux {fmt(self.nf)}",
        ]
        if self.nf.feasible and self.bp.feasible:
            lines.append(f"  speedup vs BP: {self.speedup_vs_bp:.2f}x")
        if self.nf.feasible and self.ll.feasible:
            lines.append(f"  speedup vs LL: {self.speedup_vs_ll:.2f}x")
        if self.n_blocks is not None:
            lines.append(
                f"  blocks: {self.n_blocks} "
                f"(batch {self.min_batch}..{self.max_batch})"
            )
        return "\n".join(lines)


def cell_breakdown(
    model, aan_heads, profile, platform, memory_budget: int, batch: int,
    classic_ll_bytes: int,
) -> dict:
    """The analytic table of one cell, from heads and a profile already built.

    Per method the bytes of one step at ``batch`` (Figures 1 and 4); per
    local layer what Figures 5, 6, 8 and 13 and Tables 2 and 3 plot:
    activation elements, auxiliary-head forward FLOPs, the unit's
    training bytes at ``batch``, the profiler's measurements and fitted
    line, the largest batch the line predicts under ``memory_budget``,
    and the parameter count and ``platform`` throughput of the early-exit
    model ending at that layer, beside the full model's.  Estimator and
    FLOP walks only -- nothing is executed.  ``classic_ll_bytes`` is
    classic LL's step at ``batch``, taken while its heads were alive.
    """
    from repro.evalsim.throughput import convnet_throughput, inference_throughput
    from repro.flops.count import count_module_kernels, module_forward_flops
    from repro.memory.estimator import (
        bp_training_memory,
        inference_memory,
        ll_training_memory,
        local_unit_training_memory,
    )

    bp = bp_training_memory(model, batch)
    sample_bytes = 4 * model.in_channels * model.input_hw[0] * model.input_hw[1]
    layers = []
    flops = n_kernels = params = 0
    for spec, head, line, measured in zip(
        model.local_layers(), aan_heads, profile.models, profile.measured
    ):
        stage_flops, out_shape = module_forward_flops(
            spec.module, (1, spec.in_channels, *spec.in_hw)
        )
        flops += stage_flops
        n_kernels += count_module_kernels(spec.module)
        params += spec.module.num_parameters()
        head_flops, _ = module_forward_flops(head, out_shape)
        exit_rate = inference_throughput(
            flops + head_flops,
            sample_bytes,
            n_kernels + count_module_kernels(head),
            platform,
            batch,
        )
        layers.append(
            {
                "layer": spec.index + 1,
                "activation_elements": spec.output_elements_per_sample,
                "aux_forward_flops": head_flops,
                "train_bytes": local_unit_training_memory(spec, head, batch).total,
                "measured_bytes": list(measured),
                "slope": json_num(line.slope),
                "intercept": json_num(line.intercept),
                "r_squared": json_num(line.r_squared),
                "max_batch": line.max_batch(memory_budget),
                "exit_params": params + head.num_parameters(),
                "exit_images_per_s": json_num(exit_rate.images_per_second),
            }
        )
    return {
        "batch": batch,
        "sample_batches": list(profile.sample_batches),
        "inference": inference_memory(model, batch).total,
        "aan_ll": ll_training_memory(
            model, list(aan_heads), batch, residency="params-only"
        ).total,
        "bp": {
            "activations": bp.activations,
            "parameters": bp.parameters,
            "optimizer": bp.optimizer,
            "total": bp.total,
        },
        "classic_ll": classic_ll_bytes,
        "full_params": model.num_parameters(),
        "full_images_per_s": json_num(
            convnet_throughput(model, platform, batch).images_per_second
        ),
        "layers": layers,
    }


def run_evalsim(model, data, platform, epochs: int, memory_budget: int, config):
    """Simulate BP / classic LL / NeuroFlux for one grid cell.

    ``model`` is a built ConvNet, ``data`` an (unmaterialized)
    :class:`~repro.data.datasets.DatasetSpec` at paper scale, ``config``
    a :class:`~repro.core.config.NeuroFluxConfig`.  Its ``batch_limit``
    caps all three arms (and is the batch the ``breakdown`` is taken
    at); ``rho``, ``sample_batches`` and the cache / adaptive-batch
    switches govern only the NeuroFlux arm, mirroring the real system.
    Each rule's auxiliary heads and the memory profile are built once
    and shared by the arm, the reported plan and the breakdown; the
    classic heads (the large ones) are dropped before the adaptive ones
    are built, so a cell never holds both.

    Nothing here reads a weight value -- only shapes, element counts and
    bytes -- so the report is the same for a drawn model as for one built
    shape-only.  The ``evalsim`` backend therefore builds the model and
    runs this function inside :class:`repro.nn.init.shapes_only`, where
    every weight (the heads' too) is a read-only zero array and no
    random draw is spent on it.
    """
    from repro.core.auxiliary import build_aux_heads
    from repro.core.partitioner import partition
    from repro.core.profiler import MemoryProfiler
    from repro.errors import PartitionError
    from repro.evalsim.training_time import (
        simulate_bp,
        simulate_classic_ll,
        simulate_neuroflux,
        try_simulate,
    )
    from repro.memory.estimator import ll_training_memory

    classic_heads = build_aux_heads(model, rule="classic", seed=config.seed)
    ll = try_simulate(
        simulate_classic_ll,
        model,
        data,
        platform,
        epochs,
        memory_budget=memory_budget,
        batch_limit=config.batch_limit,
        heads=classic_heads,
    )
    classic_ll_bytes = ll_training_memory(
        model, list(classic_heads[:-1]) + [None], config.batch_limit, residency="full"
    ).total
    del classic_heads

    aan_heads = build_aux_heads(model, rule="aan", seed=config.seed)
    profile = MemoryProfiler(
        model.local_layers(),
        list(aan_heads),
        sample_batches=config.sample_batches,
    ).profile()

    bp = try_simulate(
        simulate_bp,
        model,
        data,
        platform,
        epochs,
        memory_budget=memory_budget,
        batch_limit=config.batch_limit,
    )
    nf = try_simulate(
        simulate_neuroflux,
        model,
        data,
        platform,
        epochs,
        memory_budget=memory_budget,
        batch_limit=config.batch_limit,
        rho=config.rho,
        use_cache=config.use_cache,
        adaptive_batch=config.adaptive_batch,
        heads=aan_heads,
        profile=profile,
    )

    tracer = active_tracer()
    if tracer is not None:
        # One track per simulated method on the simulated timeline:
        # feasible arms occupy [0, time_s), infeasible arms are the
        # paper's "no data point" marker.
        for method, sim in (("bp", bp), ("classic-ll", ll), ("neuroflux", nf)):
            track = f"evalsim:{method}"
            if sim is None:
                tracer.instant("infeasible", "evalsim", track, 0.0)
            else:
                tracer.add_span(
                    "simulated-train", "evalsim", track, 0.0, sim.time_s,
                    attrs={"batch_size": sim.batch_size},
                )

    if nf is not None:
        blocks = nf.blocks
    else:
        # The partition can exist while a block's measured residency
        # still overshoots the budget: report the adaptive plan then.
        try:
            blocks = partition(
                profile.models, memory_budget, config.batch_limit, rho=config.rho
            )
        except PartitionError:
            blocks = ()
    n_blocks = min_batch = max_batch = None
    if blocks:
        sizes = [b.batch_size for b in blocks]
        n_blocks, min_batch, max_batch = len(blocks), min(sizes), max(sizes)

    return EvalSimReport(
        model_name=model.name,
        dataset=data.name,
        platform=platform.name,
        budget_mb=memory_budget / 2**20,
        epochs=epochs,
        rho=config.rho,
        bp=_outcome("bp", bp),
        ll=_outcome("classic-ll", ll),
        nf=_outcome("neuroflux", nf),
        n_blocks=n_blocks,
        min_batch=min_batch,
        max_batch=max_batch,
        _nf_ledger=nf.ledger.as_dict() if nf is not None else None,
        breakdown=cell_breakdown(
            model,
            aan_heads,
            profile,
            platform,
            memory_budget,
            config.batch_limit,
            classic_ll_bytes,
        ),
    )
