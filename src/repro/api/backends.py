"""Built-in backends: every subsystem behind one protocol.

Each backend materializes a :class:`~repro.api.spec.JobSpec` into live
objects (model, data, system, cluster, runtime) and adapts one existing
subsystem entry point behind ``Backend.run(spec, callbacks) -> Report``:

========================  =====================================================
``sequential``            :meth:`NeuroFlux.run` -- the block loop on a cluster
                          of one -- or the same loop on the ``cluster``
                          section's devices (bit-identical weights)
``pipelined``             :meth:`NeuroFlux.train_parallel(schedule="pipelined")`
``multiprocess``          :meth:`NeuroFlux.train_multiprocess` (real forked
                          block-parallel processes, shared-memory handoff)
``baseline``              :meth:`BaselineTrainer.train` of the comparison
                          method ``baseline.method`` names (BP, FA, classic
                          LL, SP, checkpointing, microbatching)
``evalsim``               :func:`~repro.evalsim.report.run_evalsim` (closed-form
                          paper-scale training-time simulation plus the
                          cell's analytic memory / FLOP / exit breakdown)
``federated``             :meth:`FederatedNeuroFlux.run` (synchronous FedAvg)
``federated-async``       :meth:`FederatedNeuroFlux.run_async` (bounded
                          staleness)
``serving``               train with :meth:`NeuroFlux.run`, then
                          :func:`~repro.fleet.simulate_fleet` with one
                          replica on the spec's ``platform``
``cluster-serving``       the same, with the ``cluster`` section as each
                          replica's devices and the ``fleet`` section's
                          replica set, router policy and churn schedule
========================  =====================================================

A backend also declares what of a spec it can live with, as class
attributes (``needs_cluster`` / ``forbids`` / ``defaults`` /
``rejects_time_budget``, see :class:`~repro.api.registry.Backend`);
``JobSpec`` validation and ``with_backend`` read them through the
registry, so registering a backend touches this file only.
``multiprocess``, ``evalsim`` and the federated backends have nowhere to
stop on ``budgets.time_budget_s`` and reject it; the others honour it.
"""

from __future__ import annotations

from dataclasses import replace

from repro.api.registry import Backend, JobContext, register_backend
from repro.api.spec import DeviceSection, JobSpec
from repro.errors import SpecError


# --------------------------------------------------------------------- #
# materializers (spec section -> live object)                           #
# --------------------------------------------------------------------- #
def build_data_spec_from_spec(spec: JobSpec):
    """The ``data`` section as a dataset spec, not yet materialized."""
    from repro.data.registry import dataset_spec

    d = spec.data
    return dataset_spec(
        d.dataset,
        scale=d.scale,
        image_hw=tuple(d.image_hw),
        num_classes=d.num_classes,
        noise_std=d.noise_std,
        max_shift=d.max_shift,
        seed=d.seed,
    )


def build_data_from_spec(spec: JobSpec):
    """Materialize the ``data`` section into a synthetic dataset."""
    return build_data_spec_from_spec(spec).materialize()


def build_model_from_spec(spec: JobSpec):
    """Materialize the ``model`` section into an untrained ConvNet."""
    from repro.models.zoo import build_model

    m = spec.model
    return build_model(
        m.name,
        num_classes=m.num_classes,
        input_hw=tuple(m.input_hw),
        width_multiplier=m.width_multiplier,
        seed=m.seed,
    )


def build_system_from_spec(spec: JobSpec):
    """Model + data + budgets -> a ready :class:`NeuroFlux` system."""
    from repro.core.controller import NeuroFlux
    from repro.hw.platforms import get_platform

    return NeuroFlux(
        build_model_from_spec(spec),
        build_data_from_spec(spec),
        memory_budget=spec.budgets.memory_bytes,
        platform=get_platform(spec.platform),
        config=spec.neuroflux,
    )


def build_cluster_from_spec(spec: JobSpec):
    """Materialize the ``cluster`` section into a simulated cluster."""
    from repro.parallel.cluster import Cluster

    c = spec.cluster
    return Cluster.from_names(
        [d.platform for d in c.devices],
        memory_budget=[d.memory_budget for d in c.devices],
    )


def build_events_from_section(section):
    """The event schedule a ``runtime`` or ``fleet`` section names, inline
    or by file (``None`` if it names none)."""
    from repro.runtime import EventSchedule

    if section.events is not None:
        return EventSchedule.from_json_dict(section.events)
    if section.events_file is not None:
        return EventSchedule.load(section.events_file)
    return None


def build_runtime_from_spec(spec: JobSpec):
    """Materialize the ``runtime`` section (or ``None``)."""
    if spec.runtime is None:
        return None
    from repro.runtime import AdaptiveRuntime

    return AdaptiveRuntime(
        events=build_events_from_section(spec.runtime), adapt=spec.runtime.adapt
    )


# --------------------------------------------------------------------- #
# training backends                                                     #
# --------------------------------------------------------------------- #
class _TrainingBackend(Backend):
    """Shared adapter for the sequential and pipelined schedules."""

    forbids = ("federated", "fleet", "baseline")
    schedule = "sequential"

    def prepare(self, spec: JobSpec) -> JobContext:
        context = JobContext(spec=spec, backend=self.name)
        context.system = build_system_from_spec(spec)
        if spec.cluster is not None:
            context.cluster = build_cluster_from_spec(spec)
            context.runtime = build_runtime_from_spec(spec)
        return context

    def execute(self, context: JobContext, callbacks):
        spec: JobSpec = context.spec
        if context.cluster is None:
            return context.system.run(
                spec.budgets.epochs,
                time_budget_s=spec.budgets.time_budget_s,
                callbacks=callbacks,
            )
        placement = (
            "round-robin" if spec.cluster.placement == "round-robin" else None
        )
        return context.system.train_parallel(
            context.cluster,
            epochs=spec.budgets.epochs,
            schedule=self.schedule,
            placement=placement,
            microbatch=spec.cluster.microbatch,
            queue_capacity=spec.cluster.queue_capacity,
            time_budget_s=spec.budgets.time_budget_s,
            runtime=context.runtime,
            callbacks=callbacks,
        )


@register_backend("sequential")
class SequentialBackend(_TrainingBackend):
    """Block-after-block training: one device, or a cluster with the
    bit-identical ``schedule="sequential"`` accounting."""

    schedule = "sequential"


@register_backend("pipelined")
class PipelinedBackend(_TrainingBackend):
    """Micro-batch pipeline across the cluster (blocks overlap)."""

    needs_cluster = True
    schedule = "pipelined"


@register_backend("multiprocess")
class MultiprocessBackend(Backend):
    """Real block-parallel training in forked OS processes.

    Blocks are gradient-independent under local learning, so contiguous
    block stages train concurrently -- one process per stage, activations
    streamed through shared-memory rings.  Unlike ``pipelined`` (which
    *simulates* a cluster) this spends actual cores; wall-clock lives in
    ``report.extras["wall_clock_s"]``.
    """

    forbids = ("cluster", "runtime", "federated", "serving", "fleet", "baseline")
    # The forked stages stream every epoch end to end; there is no
    # global simulated clock to stop them on.
    rejects_time_budget = True

    def prepare(self, spec: JobSpec) -> JobContext:
        context = JobContext(spec=spec, backend=self.name)
        context.system = build_system_from_spec(spec)
        return context

    def execute(self, context: JobContext, callbacks):
        spec: JobSpec = context.spec
        compute = spec.compute
        return context.system.train_multiprocess(
            spec.budgets.epochs,
            processes=compute.processes if compute is not None else None,
        )


# --------------------------------------------------------------------- #
# comparison-method backend                                             #
# --------------------------------------------------------------------- #
@register_backend("baseline")
class BaselineBackend(Backend):
    """One of the paper's comparison methods on the shared baseline frame.

    ``baseline.method`` picks the trainer (:data:`repro.training.
    BASELINE_TRAINERS`); the budget, epochs, time budget, platform and
    the ``neuroflux`` section's ``seed`` / ``optimizer`` / ``lr`` /
    ``batch_limit`` (the batch cap; microbatching's logical batch) --
    and for ``ll`` its ``aux_rule`` / ``classic_filters`` -- are the
    same fields the NeuroFlux backends read, so one sweep axis over
    ``backend`` x ``baseline.method`` is the paper's comparison.  The
    backward/forward FLOP ratio a step is priced at is no spec field: it
    is the trainer class's ``backward_multiplier``,
    :data:`repro.flops.count.DEFAULT_BACKWARD_MULTIPLIER` (the one
    ``evalsim`` prices at) except SP's 1.0.
    """

    forbids = ("cluster", "runtime", "federated", "serving", "fleet")
    defaults = ("baseline",)

    def prepare(self, spec: JobSpec) -> JobContext:
        from repro.hw.platforms import get_platform
        from repro.training import BASELINE_TRAINERS

        nf = spec.neuroflux
        method = spec.baseline.method
        init = dict(
            platform=get_platform(spec.platform),
            memory_budget=spec.budgets.memory_bytes,
            optimizer=nf.optimizer,
            lr=nf.lr,
            seed=nf.seed,
        )
        train = dict(
            batch_limit=nf.batch_limit, time_budget_s=spec.budgets.time_budget_s
        )
        if method == "ll":
            init.update(aux_rule=nf.aux_rule, classic_filters=nf.classic_filters)
        elif method == "microbatch":
            # The limit is the logical batch; the budget cuts its micro-batch.
            init["logical_batch"] = train.pop("batch_limit")
        context = JobContext(spec=spec, backend=self.name)
        context.system = BASELINE_TRAINERS[method](
            build_model_from_spec(spec), build_data_from_spec(spec), **init
        )
        context.extras["train_kwargs"] = train
        return context

    def execute(self, context: JobContext, callbacks):
        result = context.system.train(
            context.spec.budgets.epochs, **context.extras["train_kwargs"]
        )
        for point in result.history:
            callbacks.on_epoch_end(
                int(point.epoch),
                point.sim_time_s,
                {"accuracy": point.accuracy, "loss": point.loss},
            )
        return result


# --------------------------------------------------------------------- #
# closed-form simulation backend                                        #
# --------------------------------------------------------------------- #
@register_backend("evalsim")
class EvalSimBackend(Backend):
    """Closed-form paper-scale training-time simulation (the fig11 engine).

    Replays BP / classic-LL / NeuroFlux accounting for one (model,
    dataset, platform, budget) cell without running any arithmetic, and
    tabulates the cell's analytic memory / FLOP / early-exit breakdown,
    so the paper's analytic and closed-form figures are ``repro sweep``
    specs over this backend (``benchmarks/sweeps/``).  The model is
    built against the *dataset's* class count and image size
    (paper-scale simulation only makes sense when they match); the
    ``model`` section contributes the architecture, width multiplier and
    seed.  ``budgets.memory_mb`` is the training budget, ``budgets.
    epochs`` the simulated epochs.  Of the ``neuroflux`` section,
    ``batch_limit`` caps all three arms and ``optimizer`` sizes their
    state, as the trainers and the run do; ``rho`` / ``sample_batches`` /
    ``use_cache`` / ``adaptive_batch`` / ``seed`` govern the NeuroFlux
    arm, which plans as :meth:`NeuroFlux.plan` does and always trains
    AAN heads: ``aux_rule``, ``classic_filters`` and ``lr`` are not read.

    The cell's model and its classic and adaptive auxiliary heads are
    built shape-only (:class:`repro.nn.init.shapes_only`): every weight
    is a read-only zero array of the right shape.  The closed forms read
    shapes, element counts and bytes, never a weight value, so the report
    is exactly the one a drawn model gives -- without the weight draws,
    which were most of a cell's host time.
    """

    forbids = ("cluster", "runtime", "federated", "serving", "fleet", "baseline")
    # A closed form has no clock to stop on.
    rejects_time_budget = True

    def prepare(self, spec: JobSpec) -> JobContext:
        from repro.models.zoo import build_model
        from repro.nn.init import shapes_only

        context = JobContext(spec=spec, backend=self.name)
        data = build_data_spec_from_spec(spec)
        m = spec.model
        with shapes_only():
            context.system = build_model(
                m.name,
                num_classes=data.num_classes,
                input_hw=data.image_hw,
                width_multiplier=m.width_multiplier,
                seed=m.seed,
            )
        context.extras["data_spec"] = data
        return context

    def execute(self, context: JobContext, callbacks):
        from repro.evalsim.report import run_evalsim
        from repro.hw.platforms import get_platform
        from repro.nn.init import shapes_only

        spec: JobSpec = context.spec
        # run_evalsim builds the classic and adaptive auxiliary heads.
        with shapes_only():
            return run_evalsim(
                context.system,
                context.extras["data_spec"],
                get_platform(spec.platform),
                epochs=spec.budgets.epochs,
                memory_budget=spec.budgets.memory_bytes,
                config=spec.neuroflux,
            )


# --------------------------------------------------------------------- #
# federated backends                                                    #
# --------------------------------------------------------------------- #
class _FederatedBackend(Backend):
    # Clients *are* the cluster.
    forbids = ("cluster", "runtime", "serving", "fleet", "baseline")
    defaults = ("federated",)
    # Rounds end on ``federated.rounds`` / ``duration_s``, not on a budget.
    rejects_time_budget = True

    def prepare(self, spec: JobSpec) -> JobContext:
        from repro.extensions.federated import (
            FederatedClient,
            FederatedNeuroFlux,
            shard_dataset,
        )
        from repro.hw.platforms import get_platform

        fed = spec.federated
        global_data = build_data_from_spec(spec)
        shards = shard_dataset(global_data, fed.n_clients)
        platform_names = fed.platforms or [spec.platform]
        clients = []
        for i, (x, y) in enumerate(shards):
            shard_spec = replace(global_data.spec, n_train=len(x))
            shard = shard_spec.materialize()
            shard.x_train, shard.y_train = x, y
            clients.append(
                FederatedClient(
                    client_id=i,
                    data=shard,
                    memory_budget=spec.budgets.memory_bytes,
                    platform=get_platform(platform_names[i % len(platform_names)]),
                )
            )
        m = spec.model
        system = FederatedNeuroFlux(
            model_name=m.name,
            clients=clients,
            eval_data=global_data,
            model_kwargs=dict(
                num_classes=m.num_classes,
                input_hw=tuple(m.input_hw),
                width_multiplier=m.width_multiplier,
            ),
            config=spec.neuroflux,
            seed=m.seed,
        )
        return JobContext(spec=spec, backend=self.name, system=system)


@register_backend("federated")
class FederatedBackend(_FederatedBackend):
    """Synchronous FedAvg: every round waits for the straggler."""

    def execute(self, context: JobContext, callbacks):
        fed = context.spec.federated
        return context.system.run(
            rounds=fed.rounds,
            local_epochs=fed.local_epochs,
            callbacks=callbacks,
        )


@register_backend("federated-async")
class AsyncFederatedBackend(_FederatedBackend):
    """Bounded-staleness asynchronous rounds (FedAsync mixing)."""

    def execute(self, context: JobContext, callbacks):
        fed = context.spec.federated
        return context.system.run_async(
            rounds=fed.rounds,
            local_epochs=fed.local_epochs,
            max_staleness=fed.max_staleness,
            base_mix=fed.base_mix,
            duration_s=fed.duration_s,
            callbacks=callbacks,
        )


# --------------------------------------------------------------------- #
# serving backends                                                      #
# --------------------------------------------------------------------- #
@register_backend("serving")
class ServingBackend(Backend):
    """Train with NeuroFlux, then serve the exit cascade under load.

    A single server is a fleet of one: one replica on one device (the
    spec's ``platform``), no autoscaling, no churn.
    """

    forbids = ("cluster", "runtime", "federated", "fleet", "baseline")
    defaults = ("serving",)

    def prepare(self, spec: JobSpec) -> JobContext:
        from repro.fleet import FleetConfig
        from repro.serving import ServerConfig, WorkloadSpec

        context = JobContext(spec=spec, backend=self.name)
        serving = spec.serving
        # Validate everything cheap (workload, server knobs, exits)
        # before training is paid for.
        context.extras["workload"] = WorkloadSpec(
            pattern=serving.pattern,
            arrival_rate=serving.arrival_rate,
            duration_s=serving.duration_s,
            seed=spec.neuroflux.seed,
        )
        context.extras["server_config"] = ServerConfig(
            batch_cap=serving.batch_cap,
            max_wait_s=serving.max_wait_ms / 1e3,
            queue_depth=serving.queue_depth,
        )
        context.extras["devices"] = [DeviceSection(platform=spec.platform)]
        context.extras["fleet_config"] = FleetConfig(
            n_replicas=1, max_replicas=1, policy="round-robin"
        )
        context.extras["schedule"] = None
        context.system = build_system_from_spec(spec)
        if serving.exits is not None:
            n_layers = context.system.model.num_local_layers
            for i in serving.exits:
                if not 0 <= i < n_layers:
                    raise SpecError(
                        "serving",
                        f"exits layer {i} out of range "
                        f"(model has {n_layers} layers)",
                    )
        return context

    def execute(self, context: JobContext, callbacks):
        from repro.fleet import simulate_fleet

        spec: JobSpec = context.spec
        context.system.run(
            spec.budgets.epochs,
            time_budget_s=spec.budgets.time_budget_s,
            callbacks=callbacks,
        )
        serving = spec.serving
        devices = context.extras["devices"]
        return simulate_fleet(
            context.system,
            context.extras["workload"],
            cluster_names=[d.platform for d in devices],
            memory_budgets=[d.memory_budget for d in devices],
            fleet=context.extras["fleet_config"],
            server_config=context.extras["server_config"],
            exit_layers=serving.exits,
            threshold=serving.threshold,
            mode=serving.mode,
            schedule=context.extras["schedule"],
        )


@register_backend("cluster-serving")
class ClusterServingBackend(ServingBackend):
    """Train once, then serve on an N-replica cluster-sharded fleet.

    Reuses the ``serving`` section for the workload and per-replica
    batcher/queue knobs; the ``cluster`` section is each replica's device
    template (the cascade is sharded across it by the placement
    optimizer) and the ``fleet`` section shapes the replica set, router
    policy, autoscaling envelope, and churn schedule.
    """

    needs_cluster = True
    forbids = ("federated", "runtime", "baseline")
    defaults = ("serving", "fleet")

    def prepare(self, spec: JobSpec) -> JobContext:
        from repro.fleet import FleetConfig

        context = super().prepare(spec)
        f = spec.fleet
        context.extras["devices"] = spec.cluster.devices
        context.extras["fleet_config"] = FleetConfig(
            n_replicas=f.n_replicas,
            policy=f.policy,
            autoscale=f.autoscale,
            max_replicas=f.max_replicas,
            scale_up_at=f.scale_up_at,
            scale_down_at=f.scale_down_at,
            cooldown_s=f.cooldown_s,
        )
        context.extras["schedule"] = build_events_from_section(f)
        context.cluster = build_cluster_from_spec(spec)
        return context
