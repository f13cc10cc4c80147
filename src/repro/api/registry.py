"""Backend registry: one ``run(spec, callbacks) -> Report`` per workload.

A *backend* adapts one subsystem (sequential training, pipelined cluster
training, federated learning, serving) behind a uniform protocol:

* :func:`register_backend` -- class decorator adding a backend under a
  name (the plugin mechanism; anything registered becomes launchable
  from a spec file);
* :class:`Backend` -- the template: ``prepare(spec)`` materializes the
  models/data/cluster into a :class:`JobContext`, ``execute(context,
  callbacks)`` runs the subsystem and returns its report.  The base
  class owns the shared choreography (``on_job_start`` / ``on_job_end``);
* :func:`run` -- the single entry point: resolve the spec's backend and
  run it.

The built-in backends live in :mod:`repro.api.backends`; importing this
module registers them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.api.callbacks import Callback, CallbackList, as_callback_list
from repro.errors import ConfigError, SpecError

_BACKENDS: dict[str, type["Backend"]] = {}


def register_backend(name: str):
    """Class decorator: make a :class:`Backend` launchable under ``name``."""

    def deco(cls: type["Backend"]) -> type["Backend"]:
        if not (isinstance(cls, type) and issubclass(cls, Backend)):
            raise ConfigError(
                f"@register_backend({name!r}) needs a Backend subclass, "
                f"got {cls!r}"
            )
        existing = _BACKENDS.get(name)
        if existing is not None and existing is not cls:
            raise ConfigError(
                f"backend {name!r} is already registered to "
                f"{existing.__name__}"
            )
        cls.name = name
        _BACKENDS[name] = cls
        return cls

    return deco


def available_backends() -> list[str]:
    """Names accepted by :func:`get_backend` (and ``repro run --backend``)."""
    _ensure_builtins()
    return sorted(_BACKENDS)


def get_backend(name: str) -> "Backend":
    """Instantiate the backend registered under ``name``."""
    _ensure_builtins()
    cls = _BACKENDS.get(name)
    if cls is None:
        raise SpecError(
            "jobspec",
            f"unknown backend {name!r}; registered: "
            f"{', '.join(sorted(_BACKENDS))}",
        )
    return cls()


def _ensure_builtins() -> None:
    """Import the built-in backends exactly once (registration side effect)."""
    import repro.api.backends  # noqa: F401


@dataclass
class JobContext:
    """Everything a job materialized, handed to callbacks and backends.

    ``system`` is the subsystem driver (:class:`~repro.core.controller.
    NeuroFlux` for training/serving jobs, :class:`~repro.extensions.
    federated.FederatedNeuroFlux` for federated ones); ``cluster`` and
    ``runtime`` are present when the spec configured them.  ``report``
    is filled in before ``on_job_end`` fires.
    """

    spec: object
    backend: str
    system: object = None
    cluster: object = None
    runtime: object = None
    extras: dict = field(default_factory=dict)
    report: object = None


class Backend:
    """Template for one registered workload adapter.

    Subclasses implement :meth:`prepare` (spec -> materialized
    :class:`JobContext`; cheap validation belongs here so bad specs fail
    before training is paid for) and :meth:`execute` (context +
    callbacks -> a :class:`repro.api.report.Report`).

    Class attributes say what of a spec the backend can live with;
    :class:`~repro.api.spec.JobSpec` validation and ``with_backend`` read
    them through :func:`get_backend`: ``needs_cluster`` backends refuse
    to run without a ``cluster`` section (hardware is never invented),
    ``forbids`` sections are rejected by validation and dropped by
    re-targeting, ``defaults`` are workload sections materialized with
    their defaults when absent, and a backend that has no point at which
    it could stop on ``budgets.time_budget_s`` sets
    ``rejects_time_budget`` so the spec fails validation instead of
    silently training to completion.
    """

    name = "?"
    needs_cluster = False
    forbids: tuple[str, ...] = ()
    defaults: tuple[str, ...] = ()
    rejects_time_budget = False

    def run(self, spec, callbacks: Callback | list[Callback] | None = None):
        """Materialize the spec, run the job, return its report."""
        cbs = as_callback_list(callbacks)
        obs = self._observability_callbacks(spec)
        if obs:
            # A fresh list (never mutate the caller's CallbackList), obs
            # callbacks after user callbacks so user hooks observe the
            # job before its trace/metrics files are finalized.
            cbs = CallbackList(list(cbs) + obs)
        context = self.prepare(spec)
        cbs.on_job_start(context)
        context.report = self.execute(context, cbs)
        cbs.on_job_end(context)
        return context.report

    @staticmethod
    def _observability_callbacks(spec) -> list[Callback]:
        """Callbacks for the spec's ``observability`` section (if any)."""
        section = getattr(spec, "observability", None)
        if section is None:
            return []
        from repro.obs.callbacks import build_observability_callbacks

        return build_observability_callbacks(section)

    # -- to implement ------------------------------------------------------
    def prepare(self, spec) -> JobContext:
        raise NotImplementedError

    def execute(self, context: JobContext, callbacks: CallbackList):
        raise NotImplementedError


def run(spec, callbacks: Callback | list[Callback] | None = None):
    """The single entry point: execute any :class:`JobSpec`.

    ``spec`` may be a :class:`~repro.api.spec.JobSpec`, a plain dict
    (``JobSpec.from_dict`` shape), or a path to a JSON spec file.
    Returns the backend's report (:class:`repro.api.report.Report`).
    """
    from repro.api.spec import JobSpec

    if isinstance(spec, str):
        spec = JobSpec.from_json_file(spec)
    elif isinstance(spec, dict):
        spec = JobSpec.from_dict(spec)
    elif not isinstance(spec, JobSpec):
        raise ConfigError(
            f"run() takes a JobSpec, a dict, or a spec-file path; "
            f"got {type(spec).__name__}"
        )
    return get_backend(spec.backend).run(spec, callbacks)
