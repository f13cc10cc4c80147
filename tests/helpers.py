"""Shared test utilities: numerical gradient checking and tiny fixtures."""

from __future__ import annotations

import signal
from contextlib import contextmanager

import numpy as np

from repro.utils.rng import spawn_rng


def numerical_input_grad(forward_fn, x: np.ndarray, seed_grad: np.ndarray, eps: float = 1e-5):
    """Central-difference gradient of ``sum(forward(x) * seed_grad)`` w.r.t. x."""
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        up = float((forward_fn(x) * seed_grad).sum())
        flat[i] = orig - eps
        down = float((forward_fn(x) * seed_grad).sum())
        flat[i] = orig
        gflat[i] = (up - down) / (2 * eps)
    return grad


def check_module_input_grad(
    module, x: np.ndarray, rtol: float = 1e-4, atol: float = 1e-6, seed: int = 0
) -> None:
    """Assert a module's analytic input gradient matches finite differences.

    The module must be in training mode and operate in float64 for the
    check to be meaningful.
    """
    rng = spawn_rng(seed, "gradcheck")
    out = module.forward(x)
    seed_grad = rng.normal(size=out.shape).astype(x.dtype)
    analytic = module.backward(seed_grad)

    def eval_forward(xq):
        module_out = module.forward(xq)
        # Re-run backward to clear caches left by the probe forward.
        return module_out

    numeric = numerical_input_grad(eval_forward, x.copy(), seed_grad)
    # The probe forwards above leave a stale cache; clear it via a final
    # matched forward so subsequent assertions start clean.
    module.forward(x)
    np.testing.assert_allclose(analytic, numeric, rtol=rtol, atol=atol)


def check_param_grads(
    module, x: np.ndarray, rtol: float = 1e-4, atol: float = 1e-6, seed: int = 0
) -> None:
    """Assert analytic parameter gradients match finite differences."""
    rng = spawn_rng(seed, "param-gradcheck")
    out = module.forward(x)
    seed_grad = rng.normal(size=out.shape).astype(x.dtype)
    module.zero_grad()
    module.backward(seed_grad)
    for name, p in module.named_parameters():
        analytic = p.grad.copy()
        numeric = np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        nflat = numeric.reshape(-1)
        eps = 1e-5
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up = float((module.forward(x) * seed_grad).sum())
            flat[i] = orig - eps
            down = float((module.forward(x) * seed_grad).sum())
            flat[i] = orig
            nflat[i] = (up - down) / (2 * eps)
        np.testing.assert_allclose(
            analytic, numeric, rtol=rtol, atol=atol, err_msg=f"parameter {name}"
        )


def rand_image_batch(
    n: int, c: int, h: int, w: int, seed: int = 0, dtype=np.float64
) -> np.ndarray:
    rng = spawn_rng(seed, "batch")
    return rng.normal(size=(n, c, h, w)).astype(dtype)


class FakeBlas:
    """Stands in for ``repro.backend.blas._lookup``: hands out a
    ``(setter, getter)`` pair over a plain counter and records every
    lookup and every set, so tests can assert on BLAS control without
    touching the real library."""

    def __init__(self, count: int):
        self.count = count
        self.sets: list[int] = []
        self.lookups = 0

    def __call__(self):
        self.lookups += 1
        return self._set, lambda: self.count

    def _set(self, n: int) -> None:
        self.sets.append(n)
        self.count = n

    def install(self, monkeypatch) -> "FakeBlas":
        from repro.backend import blas

        monkeypatch.setattr(blas, "_lookup", self)
        return self


# --------------------------------------------------------------------- #
# the structural facts without the memo                                 #
# --------------------------------------------------------------------- #
class _NoFacts:
    """A memo store that keeps nothing: every fact is computed afresh."""

    def get(self, module, default=None):
        return default

    def __setitem__(self, module, facts) -> None:
        pass

    def pop(self, module, default=None):
        return default


@contextmanager
def unmemoized():
    """Every structural fact walked afresh: nothing is read from or
    written to :mod:`repro.utils.memo`, and ``module_forward_flops``
    applies its rules at the full batch (as it did before the memo)
    instead of at batch 1, scaled.  Also a decorator: the replays below
    run under it, so they never share a computation with what they
    check."""
    from repro.flops import count
    from repro.utils import memo

    saved = memo._FACTS, count.module_forward_flops
    memo._FACTS, count.module_forward_flops = _NoFacts(), count.walk_forward_flops
    try:
        yield
    finally:
        memo._FACTS, count.module_forward_flops = saved


# --------------------------------------------------------------------- #
# step-by-step replay: the reference for repro.evalsim.training_time     #
# --------------------------------------------------------------------- #
def _replay_steps(n_samples: int, batch: int) -> list[int]:
    full, rem = divmod(n_samples, batch)
    return [batch] * full + ([rem] if rem else [])


@unmemoized()
def replay_bp(model, data, platform, epochs, memory_budget=None, batch_limit=256):
    """``simulate_bp`` the long way: one simulator charge per optimizer
    step of every epoch, one full model walk per memory probe."""
    from repro.evalsim.training_time import SimulatedRun
    from repro.flops.count import model_forward_flops, training_step_flops
    from repro.hw.simulator import ExecutionSimulator
    from repro.memory.estimator import bp_training_memory
    from repro.training.backprop import max_feasible_batch
    from repro.flops.count import model_kernel_count

    mem = lambda b: bp_training_memory(model, b).total
    batch = max_feasible_batch(mem, memory_budget, batch_limit)
    sim = ExecutionSimulator(platform)
    step_flops = training_step_flops(model_forward_flops(model, 1))
    n_kernels = model_kernel_count(model)
    for _ in range(epochs):
        for n in _replay_steps(data.n_train, batch):
            sim.add_training_step(step_flops * n, data.sample_bytes * n, n_kernels)
    return SimulatedRun("backprop", batch, epochs, sim.elapsed, sim.ledger, mem(batch))


@unmemoized()
def replay_classic_ll(
    model, data, platform, epochs, memory_budget=None, batch_limit=256, seed=0
):
    """``simulate_classic_ll`` the long way (see :func:`replay_bp`)."""
    from repro.core.auxiliary import build_aux_heads
    from repro.evalsim.training_time import SimulatedRun
    from repro.flops.count import module_forward_flops, training_step_flops
    from repro.hw.simulator import ExecutionSimulator
    from repro.memory.estimator import ll_training_memory
    from repro.training.backprop import max_feasible_batch
    from repro.flops.count import count_module_kernels

    heads = build_aux_heads(model, rule="classic", seed=seed)
    aux = list(heads[:-1]) + [None]
    mem = lambda b: ll_training_memory(model, aux, b, residency="full").total
    batch = max_feasible_batch(mem, memory_budget, batch_limit)

    step_flops = 0
    n_kernels = 0
    for spec, head in zip(model.local_layers(), aux):
        in_shape = (1, spec.in_channels, *spec.in_hw)
        fwd, out_shape = module_forward_flops(spec.module, in_shape)
        step_flops += training_step_flops(fwd)
        n_kernels += count_module_kernels(spec.module)
        if head is not None:
            aux_fwd, _ = module_forward_flops(head, out_shape)
            step_flops += training_step_flops(aux_fwd)
            n_kernels += count_module_kernels(head)
    last = model.local_layers()[-1]
    head_fwd, _ = module_forward_flops(model.head, (1, last.out_channels, *last.out_hw))
    step_flops += training_step_flops(head_fwd)
    n_kernels += count_module_kernels(model.head)

    sim = ExecutionSimulator(platform)
    for _ in range(epochs):
        for n in _replay_steps(data.n_train, batch):
            sim.add_training_step(step_flops * n, data.sample_bytes * n, n_kernels)
    return SimulatedRun("classic-ll", batch, epochs, sim.elapsed, sim.ledger, mem(batch))


@unmemoized()
def replay_neuroflux(
    model, data, platform, epochs, memory_budget, batch_limit=256, rho=0.4,
    use_cache=True, adaptive_batch=True, seed=0, blocks=None,
):
    """``simulate_neuroflux`` the long way: every training step, cache
    read and cache-fill batch of every block is its own charge.
    ``blocks`` replays that partition (``price_partition``'s reference)
    in place of Algorithm 1's."""
    from repro.core.auxiliary import build_aux_heads
    from repro.core.partitioner import partition
    from repro.core.profiler import MemoryProfiler, measure_unit_memory
    from repro.errors import MemoryBudgetExceeded
    from repro.evalsim.training_time import SimulatedRun
    from repro.flops.count import module_forward_flops, training_step_flops
    from repro.hw.simulator import ExecutionSimulator
    from repro.flops.count import count_module_kernels

    heads = build_aux_heads(model, rule="aan", seed=seed)
    specs = model.local_layers()
    profile = MemoryProfiler(specs, list(heads)).profile()
    if blocks is None:
        blocks = partition(profile.models, memory_budget, batch_limit, rho=rho)
        if not adaptive_batch:
            global_batch = min(b.batch_size for b in blocks)
            for b in blocks:
                b.batch_size = global_batch

    sim = ExecutionSimulator(platform)
    sim.add_profiling(
        profile.profiling_flops / platform.effective_flops
        + len(specs) * platform.kernel_launch_overhead
    )

    peak = 0
    for block in blocks:
        block_specs = [specs[i] for i in block.layer_indices]
        block_heads = [heads[i] for i in block.layer_indices]
        train_flops = 0
        fwd_flops = 0
        n_kernels = 0
        for spec, head in zip(block_specs, block_heads):
            in_shape = (1, spec.in_channels, *spec.in_hw)
            fwd, out_shape = module_forward_flops(spec.module, in_shape)
            fwd_flops += fwd
            train_flops += training_step_flops(fwd)
            aux_fwd, _ = module_forward_flops(head, out_shape)
            train_flops += training_step_flops(aux_fwd)
            n_kernels += count_module_kernels(spec.module) + count_module_kernels(head)
        residency = max(
            measure_unit_memory(specs[i], heads[i], block.batch_size)
            for i in block.layer_indices
        )
        peak = max(peak, residency)
        if residency > memory_budget:
            raise MemoryBudgetExceeded(residency, 0, memory_budget, "block residency")

        block_params = sum(s.module.parameter_bytes() for s in block_specs) + sum(
            h.parameter_bytes() for h in block_heads
        )
        sim.ledger.overhead += sim.storage_time(block_params, n_ops=1)

        in_spec, out_spec = block_specs[0], block_specs[-1]
        in_bytes_per_sample = in_spec.in_channels * in_spec.in_hw[0] * in_spec.in_hw[1] * 4
        out_bytes_per_sample = (
            out_spec.out_channels * out_spec.out_hw[0] * out_spec.out_hw[1] * 4
        )
        steps = _replay_steps(data.n_train, block.batch_size)
        prior_fwd_flops = 0
        if not use_cache and block.index > 0:
            for s in specs[: block.first_layer]:
                f, _ = module_forward_flops(s.module, (1, s.in_channels, *s.in_hw))
                prior_fwd_flops += f
        cached_input = use_cache and block.index > 0
        input_mode = "prefetch-cache" if cached_input else "prefetch-raw"
        # The cache holds one file per batch the *previous* block wrote;
        # every pass over the cache reads each of them once, whatever
        # batch size this block rebatches them to.
        files = (
            _replay_steps(data.n_train, blocks[block.index - 1].batch_size)
            if cached_input else []
        )
        for _ in range(epochs):
            for n in files:
                sim.add_cache_read(in_bytes_per_sample * n + 8 * n, n_files=1)
            for n in steps:
                sim.add_training_step(
                    train_flops * n, data.sample_bytes * n, n_kernels, input_mode=input_mode
                )
                if prior_fwd_flops:
                    sim.add_inference_batch(
                        prior_fwd_flops * n, data.sample_bytes * n, block.first_layer
                    )
        if use_cache and block.index < len(blocks) - 1:
            # Post-training forward pass that fills the activation cache.
            for n in files:
                sim.add_cache_read(in_bytes_per_sample * n + 8 * n, n_files=1)
            for n in steps:
                sim.add_inference_batch(fwd_flops * n, data.sample_bytes * n, n_kernels)
                sim.add_cache_write(out_bytes_per_sample * n + 8 * n, n_files=1)
    return SimulatedRun(
        "neuroflux", max(b.batch_size for b in blocks), epochs, sim.elapsed, sim.ledger,
        peak, blocks=tuple(blocks),
    )


# --------------------------------------------------------------------- #
# one server = a fleet of one                                           #
# --------------------------------------------------------------------- #
def serve_single(system, workload, platform="agx-orin", config=None,
                 tracer=None, **kwargs):
    """Serve ``workload`` on one server: one replica, one device, no
    schedule -- exactly how the ``serving`` backend runs the fleet
    simulator.  ``kwargs`` pass through (``threshold``, ``mode``,
    ``exit_layers``); a ``tracer`` is activated for the run."""
    from repro.fleet import FleetConfig, simulate_fleet
    from repro.obs.trace import activate, deactivate

    if tracer is not None:
        activate(tracer)
    try:
        return simulate_fleet(
            system,
            workload,
            cluster_names=[platform],
            fleet=FleetConfig(n_replicas=1, max_replicas=1, policy="round-robin"),
            server_config=config,
            **kwargs,
        )
    finally:
        if tracer is not None:
            deactivate()


@contextmanager
def time_limit(seconds):
    """Fail (instead of hanging tier-1) if the body outlives ``seconds``."""

    def _expired(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@contextmanager
def recorded_fleet_simulators(base=None):
    """Record every ``FleetSimulator`` that ``simulate_fleet`` builds.

    Yields the (initially empty) list of instances.  ``base`` substitutes
    a test-side subclass -- how tests observe or check the loop's
    internals without a debug flag in ``src/``.
    """
    import repro.fleet.simulator as module

    original = module.FleetSimulator
    made = []

    class Recorded(base or original):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    module.FleetSimulator = Recorded
    try:
        yield made
    finally:
        module.FleetSimulator = original


# --------------------------------------------------------------------- #
# federated fixture                                                     #
# --------------------------------------------------------------------- #
def make_federation(platforms=("nano", "agx-orin")):
    """Clients on ``platforms``, each with a contiguous shard of 180
    training samples and a 12 MiB budget, federating a width-0.125 vgg11."""
    from dataclasses import replace

    from repro.core import NeuroFluxConfig
    from repro.data.registry import dataset_spec
    from repro.extensions import FederatedClient, FederatedNeuroFlux, shard_dataset
    from repro.hw.platforms import get_platform

    spec = dataset_spec(
        "cifar10", num_classes=4, image_hw=(16, 16), noise_std=0.4, seed=11
    )
    spec = replace(spec, n_train=180, n_val=40, n_test=60)
    global_data = spec.materialize()
    clients = []
    for i, ((x, y), name) in enumerate(
        zip(shard_dataset(global_data, len(platforms)), platforms)
    ):
        shard = replace(spec, n_train=len(x)).materialize()
        shard.x_train, shard.y_train = x, y
        clients.append(
            FederatedClient(i, shard, 12 * _MB, platform=get_platform(name))
        )
    return FederatedNeuroFlux(
        "vgg11",
        clients,
        global_data,
        model_kwargs=dict(num_classes=4, input_hw=(16, 16), width_multiplier=0.125),
        config=NeuroFluxConfig(batch_limit=32, seed=0),
    )


# --------------------------------------------------------------------- #
# training golden: every schedule, recorded bit for bit                 #
# --------------------------------------------------------------------- #
TRAIN_GOLDEN_EPOCHS = 2
_MB = 2**20
_HETERO = ["nano", "xavier-nx", "agx-orin"]
_EMPTY: list[dict] = []
_FAIL_DEV0 = [{"type": "failure", "time_s": 0.03, "device": 0}]
_FAIL_DEV1 = [{"type": "failure", "time_s": 0.03, "device": 1}]
_SLOW_DEV0 = [
    {"type": "slowdown", "time_s": 0.01, "device": 0, "factor": 3.0,
     "duration_s": 0.1}
]


def train_golden_cases() -> dict[str, dict]:
    """The recorded matrix: case id -> how to run it (all JSON-pure).

    ``events`` absent = no runtime; otherwise an ``AdaptiveRuntime``
    drives that event list (empty, a slowdown of the only device, or a
    mid-run failure of a device that hosts live state).
    """
    cases: dict[str, dict] = {
        "run-cache": {"entry": "run"},
        "run-nocache": {"entry": "run", "config": {"use_cache": False}},
        "run-fixed-batch": {"entry": "run", "config": {"adaptive_batch": False}},
        "run-time-budget": {"entry": "run", "time_budget_s": 0.05},
        "mp-1proc": {"entry": "multiprocess", "processes": 1},
        "mp-2proc": {"entry": "multiprocess", "processes": 2},
    }
    arms = (
        ("sequential", "one-device", ["agx-orin"], None, ("slowdown", _SLOW_DEV0)),
        ("sequential", "hetero-rr", _HETERO, "round-robin", ("failure", _FAIL_DEV0)),
        ("pipelined", "hetero-opt", _HETERO, None, ("failure", _FAIL_DEV1)),
        ("pipelined", "hetero-rr", _HETERO, "round-robin", ("failure", _FAIL_DEV0)),
    )
    for schedule, arm, names, placement, fault in arms:
        for label, events in (("noruntime", None), ("empty", _EMPTY), fault):
            case = {
                "entry": "parallel",
                "schedule": schedule,
                "cluster": list(names),
                "placement": placement,
            }
            if events is not None:
                case["events"] = events
            cases[f"{schedule}-{arm}-{label}"] = case
    return cases


def _exact(value):
    """JSON-pure copy of ``value`` with every float as ``float.hex``."""
    import dataclasses

    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        value = dataclasses.asdict(value)
    if isinstance(value, dict):
        return {str(k): _exact(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_exact(v) for v in value]
    if isinstance(value, (bool, str, type(None))):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    raise TypeError(f"cannot record {type(value).__name__}")


def _sha256_json(payload) -> str:
    import hashlib
    import json

    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def modules_digest(modules) -> str:
    """sha256 over every parameter of ``modules``, in order.

    Parameters only: BatchNorm running statistics are held by their own
    assertions, so a digest recorded before they joined ``state_dict``
    still names the same bytes."""
    import hashlib

    digest = hashlib.sha256()
    for module in modules:
        for key, param in sorted(module.named_parameters(), key=lambda kv: kv[0]):
            array = np.ascontiguousarray(param.data)
            digest.update(f"{key}:{array.dtype}:{array.shape}".encode())
            digest.update(array.tobytes())
    return digest.hexdigest()


def weights_digest(system) -> str:
    """sha256 over every parameter of the model + aux heads."""
    return modules_digest((system.model, *system.aux_heads))


def run_train_golden_case(case: dict, seed: int = 0):
    """Run one golden case on a fresh system; returns ``(system, report,
    tracer)`` -- ``report`` is whatever the entry point returned."""
    from dataclasses import replace

    from repro.core.config import NeuroFluxConfig
    from repro.core.controller import NeuroFlux
    from repro.data.registry import dataset_spec
    from repro.models.zoo import build_model
    from repro.obs.trace import Tracer, activate, deactivate
    from repro.parallel import Cluster
    from repro.runtime import AdaptiveRuntime, EventSchedule

    spec = dataset_spec(
        "cifar10", num_classes=4, image_hw=(16, 16), noise_std=0.4, seed=7
    )
    data = replace(spec, n_train=96, n_val=32, n_test=32).materialize()
    system = NeuroFlux(
        build_model(
            "vgg11", num_classes=4, input_hw=(16, 16), width_multiplier=0.125, seed=3
        ),
        data,
        memory_budget=3 * _MB // 4,
        config=NeuroFluxConfig(batch_limit=32, seed=seed, **case.get("config", {})),
    )
    runtime = None
    if "events" in case:
        runtime = AdaptiveRuntime(
            events=EventSchedule.from_json_dict({"events": case["events"]})
        )
    tracer = activate(Tracer())
    try:
        if case["entry"] == "run":
            report = system.run(
                TRAIN_GOLDEN_EPOCHS, time_budget_s=case.get("time_budget_s")
            )
        elif case["entry"] == "multiprocess":
            report = system.train_multiprocess(
                TRAIN_GOLDEN_EPOCHS, processes=case["processes"]
            )
        else:
            report = system.train_parallel(
                Cluster.from_names(case["cluster"], memory_budget=4 * _MB),
                TRAIN_GOLDEN_EPOCHS,
                schedule=case["schedule"],
                placement=case["placement"],
                runtime=runtime,
            )
    finally:
        deactivate()
    return system, report, tracer


def train_golden_outcome(system, report, tracer) -> dict:
    """Everything the golden pins about one run, floats as ``float.hex``."""
    from repro.parallel import ParallelReport

    result = report.result
    # Host-clock extras (wall seconds, BLAS threads, core counts) vary
    # run to run; the simulated ones are part of the contract.
    extras = {
        k: result.extras[k]
        for k in ("schedule", "microbatch", "stages", "processes")
        if k in result.extras
    }
    outcome = {
        "weights_sha256": weights_digest(system),
        "trace_sha256": _sha256_json(tracer.to_chrome_dict()),
        "method": result.method,
        "platform_name": result.platform_name,
        "batch_size": result.batch_size,
        "sim_time_s": result.sim_time_s,
        "ledger": result.ledger.as_dict(),
        "peak_memory_bytes": result.peak_memory_bytes,
        "final_accuracy": result.final_accuracy,
        "extras": extras,
        "profiling_time_s": report.profiling_time_s,
        "cache_bytes_written": report.cache_bytes_written,
        "exit_layer": report.exit_layer,
        "exit_params": report.exit_params,
        "exit_val_accuracy": report.exit_val_accuracy,
        "exit_test_accuracy": report.exit_test_accuracy,
        "layer_val_accuracies": report.layer_val_accuracies,
        "history": result.history,
        "blocks": [[b.layer_indices, b.batch_size] for b in report.blocks],
        "block_reports": report.block_reports,
    }
    if isinstance(report, ParallelReport):
        outcome["parallel"] = {
            "schedule": report.schedule,
            "placement": report.placement,
            "device_names": report.device_names,
            "makespan_s": report.makespan_s,
            "predicted_makespan_s": report.predicted_makespan_s,
            "device_ledgers": report.device_ledgers,
            "utilization": report.utilization,
            "bubble_fraction": report.bubble_fraction,
            "comm_bytes": report.comm_bytes,
            "microbatch": report.microbatch,
            "n_microbatches": report.n_microbatches,
            "runtime": report.runtime,
        }
    return _exact(outcome)


# --------------------------------------------------------------------- #
# baseline golden: the six comparison trainers, recorded bit for bit    #
# --------------------------------------------------------------------- #
BASELINE_GOLDEN_EPOCHS = 2
#: The six comparison trainers, by their name in ``repro.training``.
BASELINE_TRAINERS = (
    "BackpropTrainer", "FeedbackAlignmentTrainer", "LocalLearningTrainer",
    "SignalPropagationTrainer", "GradientCheckpointTrainer", "MicrobatchTrainer",
)


def baseline_golden_cases() -> dict[str, dict]:
    """The recorded matrix: case id -> how to run it (all JSON-pure).

    Every trainer on the small vgg11 with an explicit ``batch_size``
    (40 over 96 samples: two full batches and a remainder) and with a
    ``memory_budget`` that forces a smaller feasible batch; the trainers
    that took ``time_budget_s`` before the shared frame (BP, FA, classic
    LL, SP) also with a budget that stops during the first epoch; BP and
    classic LL once more on resnet18 and mobilenet.
    """
    # trainer -> (class, constructor kwargs, the budget that binds)
    trainers = {
        "bp": ("BackpropTrainer", {}, 5 * _MB),
        "fa": ("FeedbackAlignmentTrainer", {}, 5 * _MB),
        "ll": ("LocalLearningTrainer", {"classic_filters": 32}, 6 * _MB),
        "sp": ("SignalPropagationTrainer", {}, 5 * _MB // 4),
        "ckpt": ("GradientCheckpointTrainer", {}, 3 * _MB),
        "micro": ("MicrobatchTrainer", {"logical_batch": 40}, 5 * _MB),
    }
    cases: dict[str, dict] = {}
    for key, (cls, init, budget) in trainers.items():
        # MicrobatchTrainer.train takes epochs only: its batch is the
        # logical batch, cut to the budget.
        explicit = {} if key == "micro" else {"batch_size": 40}
        sizings = (
            ("batch", init, explicit),
            ("budget", {**init, "memory_budget": budget}, {}),
        )
        for sizing, init_kwargs, train_kwargs in sizings:
            case = {"trainer": cls, "model": "vgg11", "init": init_kwargs,
                    "train": train_kwargs}
            cases[f"{key}-vgg11-{sizing}"] = case
            if key in ("bp", "fa", "ll", "sp"):
                cases[f"{key}-vgg11-{sizing}-timed"] = {
                    **case, "train": {**train_kwargs, "time_budget_s": 0.1}
                }
    for model, bp_budget, ll_budget in (
        ("resnet18", 16 * _MB, 24 * _MB), ("mobilenet", 8 * _MB, 16 * _MB),
    ):
        cases[f"bp-{model}-budget"] = {
            "trainer": "BackpropTrainer", "model": model,
            "init": {"memory_budget": bp_budget}, "train": {},
        }
        cases[f"ll-{model}-budget"] = {
            "trainer": "LocalLearningTrainer", "model": model,
            "init": {"classic_filters": 32, "memory_budget": ll_budget}, "train": {},
        }
    return cases


def run_baseline_golden_case(case: dict, seed: int = 1):
    """Run one golden case on a fresh model; returns ``(trainer, result)``."""
    from dataclasses import replace

    import repro.training
    from repro.data.registry import dataset_spec
    from repro.models.zoo import build_model

    spec = dataset_spec(
        "cifar10", num_classes=4, image_hw=(16, 16), noise_std=0.4, seed=7
    )
    data = replace(spec, n_train=96, n_val=32, n_test=32).materialize()
    model = build_model(
        case["model"], num_classes=4, input_hw=(16, 16), width_multiplier=0.125, seed=3
    )
    trainer = getattr(repro.training, case["trainer"])(
        model, data, seed=seed, **case["init"]
    )
    return trainer, trainer.train(BASELINE_GOLDEN_EPOCHS, **case["train"])


def baseline_golden_outcome(trainer, result) -> dict:
    """Everything the golden pins about one run, floats as ``float.hex``."""
    heads = [a for a in getattr(trainer, "aux_heads", ()) if a is not None]
    return _exact({
        "weights_sha256": modules_digest((trainer.model, *heads)),
        "method": result.method,
        "batch_size": result.batch_size,
        "epochs": result.epochs,
        "peak_memory_bytes": result.peak_memory_bytes,
        "num_parameters": result.num_parameters,
        "sim_time_s": result.sim_time_s,
        "ledger": result.ledger.as_dict(),
        "final_accuracy": result.final_accuracy,
        "history": result.history,
        "extras": result.extras,
    })
