"""JobSpec: one declarative, validated description of any repro job.

A :class:`JobSpec` is composed of typed sections -- ``model``, ``data``,
``neuroflux`` (wrapping :class:`~repro.core.config.NeuroFluxConfig`),
``cluster``, ``runtime``, ``federated``, ``serving``, ``fleet``, ``budgets``,
``observability``, ``compute``, ``baseline`` -- plus two scalars: the
``backend`` that executes it and the single-device ``platform``.  Specs are JSON-round-trippable (``from_dict`` /
``to_dict`` / ``from_json_file``), and every validation failure raises a
structured :class:`~repro.errors.SpecError` naming the offending
section.

Defaulting rules:

* the always-present sections (``model``, ``data``, ``neuroflux``,
  ``budgets``) fall back to their defaults when omitted;
* *workload* sections (``federated``, ``serving``, ``fleet``,
  ``baseline``) are defaulted in when the chosen backend needs them --
  their defaults describe a deliberately tiny job;
* the *hardware* section (``cluster``) is never invented: a backend that
  needs devices (``pipelined``, or anything with a ``runtime`` section)
  raises :class:`SpecError` when it is missing.

Cross-section rules (each raises a :class:`SpecError` naming the
section; every backend declares its own as ``needs_cluster`` /
``forbids`` / ``defaults`` class attributes in :mod:`repro.api.backends`,
and validation reads them through the registry): ``runtime`` requires
``cluster``; the ``pipelined`` and
``sequential`` training backends forbid a ``federated`` section; the
federated backends forbid ``cluster``/``runtime``/``serving`` (clients
*are* the cluster); the ``serving`` backend forbids
``cluster``/``runtime``/``federated``; only the ``baseline`` backend
takes a ``baseline`` section.

One spec file can still drive every backend:
:meth:`JobSpec.with_backend` (the CLI's ``repro run --backend``)
re-targets a spec, dropping the sections the new backend forbids and
defaulting the workload sections it needs.
"""

from __future__ import annotations

import copy
import dataclasses
import json
from dataclasses import dataclass, field, fields

from repro.core.config import NeuroFluxConfig
from repro.errors import ConfigError, SpecError

#: Fields declared as tuples but arriving as JSON lists.
_TUPLE_FIELDS = {"input_hw", "image_hw"}


# --------------------------------------------------------------------- #
# sections                                                              #
# --------------------------------------------------------------------- #
@dataclass
class ModelSection:
    """Which CNN to build (see :mod:`repro.models.zoo`)."""

    _section = "model"

    name: str = "vgg11"
    num_classes: int = 10
    input_hw: tuple[int, int] = (32, 32)
    width_multiplier: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.width_multiplier <= 0:
            raise SpecError("model", "width_multiplier must be positive")
        if self.num_classes < 2:
            raise SpecError("model", "num_classes must be >= 2")
        if len(tuple(self.input_hw)) != 2:
            raise SpecError("model", "input_hw must be (height, width)")


@dataclass
class DataSection:
    """Which dataset preset to materialize (see :mod:`repro.data.registry`)."""

    _section = "data"

    dataset: str = "cifar10"
    num_classes: int | None = None
    image_hw: tuple[int, int] = (32, 32)
    scale: float = 1.0
    noise_std: float = 0.6
    max_shift: int = 2
    seed: int = 0

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise SpecError("data", "scale must be positive")
        if len(tuple(self.image_hw)) != 2:
            raise SpecError("data", "image_hw must be (height, width)")


@dataclass
class DeviceSection:
    """One cluster device: a platform short name and optional budget."""

    platform: str
    memory_budget: int | None = None

    def __post_init__(self) -> None:
        if self.memory_budget is not None and self.memory_budget <= 0:
            raise SpecError("cluster", "device memory_budget must be positive")


def _default_devices() -> list[DeviceSection]:
    from repro.parallel.cluster import DEFAULT_EDGE_CLUSTER

    return [DeviceSection(platform=name) for name in DEFAULT_EDGE_CLUSTER]


@dataclass
class ClusterSection:
    """The simulated device fleet and pipeline-stream knobs."""

    _section = "cluster"

    devices: list[DeviceSection] = field(default_factory=_default_devices)
    placement: str = "optimized"
    microbatch: int | None = None
    queue_capacity: int = 2

    def __post_init__(self) -> None:
        if not self.devices:
            raise SpecError("cluster", "a cluster needs at least one device")
        if self.placement not in ("optimized", "round-robin"):
            raise SpecError(
                "cluster",
                f"unknown placement strategy {self.placement!r} "
                "(optimized | round-robin)",
            )
        if self.microbatch is not None and self.microbatch < 1:
            raise SpecError("cluster", "microbatch must be >= 1")
        if self.queue_capacity < 1:
            raise SpecError("cluster", "queue_capacity must be >= 1")


def _check_one_event_source(section) -> None:
    """A section names its event schedule inline or by file, not both."""
    if section.events is not None and section.events_file is not None:
        raise SpecError(
            section._section, "events and events_file are mutually exclusive"
        )


@dataclass
class RuntimeSection:
    """The adaptive cluster runtime (see :class:`repro.runtime.AdaptiveRuntime`)."""

    _section = "runtime"

    adapt: bool = True
    #: Inline fault/load schedule (the ``EventSchedule`` JSON shape).
    events: dict | None = None
    #: Path to a schedule file; mutually exclusive with ``events``.
    events_file: str | None = None

    def __post_init__(self) -> None:
        _check_one_event_source(self)


@dataclass
class FederatedSection:
    """Federated workload: clients, rounds, and async mixing knobs.

    The defaults describe a deliberately tiny job (two clients, one
    round) so a backend that defaults this section in stays cheap.
    ``platforms`` is cycled over clients; ``None`` uses the spec's
    single-device ``platform`` for every client.
    """

    _section = "federated"

    n_clients: int = 2
    rounds: int = 1
    local_epochs: int = 1
    platforms: list[str] | None = None
    max_staleness: int = 2
    base_mix: float = 0.5
    duration_s: float | None = None

    def __post_init__(self) -> None:
        if self.n_clients < 1:
            raise SpecError("federated", "n_clients must be >= 1")
        if self.rounds < 1:
            raise SpecError("federated", "rounds must be >= 1")
        if self.local_epochs < 1:
            raise SpecError("federated", "local_epochs must be >= 1")
        if self.max_staleness < 0:
            raise SpecError("federated", "max_staleness must be >= 0")
        if not 0 < self.base_mix <= 1:
            raise SpecError("federated", "base_mix must be in (0, 1]")
        if self.duration_s is not None and self.duration_s <= 0:
            raise SpecError("federated", "duration_s must be positive")
        if self.platforms is not None and not self.platforms:
            raise SpecError("federated", "platforms must be non-empty or null")


@dataclass
class ServingSection:
    """Serving workload: arrival process, routing, batcher knobs."""

    _section = "serving"

    pattern: str = "poisson"
    arrival_rate: float = 100.0
    duration_s: float = 0.5
    mode: str = "cascade"
    threshold: float = 0.5
    exits: list[int] | None = None
    batch_cap: int = 32
    max_wait_ms: float = 5.0
    queue_depth: int = 256

    def __post_init__(self) -> None:
        if self.mode not in ("cascade", "shallow-only", "deepest-only"):
            raise SpecError(
                "serving",
                f"unknown mode {self.mode!r} "
                "(cascade | shallow-only | deepest-only)",
            )
        if not 0.0 <= self.threshold <= 1.0:
            raise SpecError("serving", "threshold must be in [0, 1]")
        if self.exits is not None:
            if not self.exits:
                raise SpecError("serving", "exits needs at least one layer index")
            if self.exits != sorted(set(self.exits)):
                raise SpecError("serving", "exits must be strictly increasing")
        if self.max_wait_ms < 0:
            raise SpecError("serving", "max_wait_ms must be non-negative")
        from repro.serving.workload import ARRIVAL_PATTERNS

        if self.pattern not in ARRIVAL_PATTERNS:
            raise SpecError(
                "serving",
                f"unknown arrival pattern {self.pattern!r}; "
                f"available: {', '.join(ARRIVAL_PATTERNS)}",
            )
        for name in ("arrival_rate", "duration_s"):
            value = getattr(self, name)
            if (
                isinstance(value, bool)
                or not isinstance(value, (int, float))
                or not value > 0
            ):
                raise SpecError("serving", f"{name} must be a positive number")
        for name in ("batch_cap", "queue_depth"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise SpecError("serving", f"{name} must be an integer >= 1")


@dataclass
class FleetSection:
    """Multi-replica cluster serving (see :mod:`repro.fleet`).

    Rides next to ``serving`` (which keeps owning the workload and the
    per-replica batcher/queue knobs); this section owns the fleet shape:
    replica count, router policy, autoscaling envelope, and the churn
    schedule replayed as replica-level slowdowns, failures and joins.
    The spec's ``cluster`` section is each replica's device template.
    """

    _section = "fleet"

    n_replicas: int = 2
    policy: str = "latency-aware"
    autoscale: bool = False
    max_replicas: int = 4
    scale_up_at: float = 0.75
    scale_down_at: float = 0.05
    cooldown_s: float = 0.25
    #: Inline churn schedule (the ``EventSchedule`` JSON shape), with
    #: ``device`` read as a replica index.
    events: dict | None = None
    #: Path to a schedule file; mutually exclusive with ``events``.
    events_file: str | None = None

    def __post_init__(self) -> None:
        from repro.fleet.router import ROUTER_POLICIES

        if self.policy not in ROUTER_POLICIES:
            raise SpecError(
                "fleet",
                f"unknown policy {self.policy!r}; "
                f"available: {', '.join(ROUTER_POLICIES)}",
            )
        if self.n_replicas < 1:
            raise SpecError("fleet", "n_replicas must be >= 1")
        if self.max_replicas < self.n_replicas:
            raise SpecError("fleet", "max_replicas must be >= n_replicas")
        if not 0.0 < self.scale_up_at <= 1.0:
            raise SpecError("fleet", "scale_up_at must be in (0, 1]")
        if not 0.0 <= self.scale_down_at < self.scale_up_at:
            raise SpecError(
                "fleet", "scale_down_at must be in [0, scale_up_at)"
            )
        if self.cooldown_s < 0:
            raise SpecError("fleet", "cooldown_s must be non-negative")
        _check_one_event_source(self)


@dataclass
class ObservabilitySection:
    """Tracing/metrics sinks for the run (see :mod:`repro.obs`).

    Backend-agnostic: any backend accepts it, and the registry turns it
    into the corresponding :mod:`repro.obs` callbacks.  All fields
    default to "off", so an empty section is a no-op.
    """

    _section = "observability"

    #: Chrome trace-event JSON (open in Perfetto / chrome://tracing).
    trace_path: str | None = None
    #: Compact one-JSON-object-per-span log.
    trace_jsonl_path: str | None = None
    #: Metrics-registry snapshot JSON.
    metrics_path: str | None = None
    #: Per-epoch/round/request progress lines on stderr.
    progress: bool = False
    #: One CSV row per epoch/round (loss, accuracy, wall-clock).
    csv_path: str | None = None

    def __post_init__(self) -> None:
        for name in ("trace_path", "trace_jsonl_path", "metrics_path", "csv_path"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, str):
                raise SpecError("observability", f"{name} must be a path string")
        if not isinstance(self.progress, bool):
            raise SpecError("observability", "progress must be a boolean")


@dataclass
class ComputeSection:
    """Compute substrate selection (see :mod:`repro.backend`).

    Backend-agnostic, like ``observability``: any backend accepts it.
    ``processes`` sizes the ``multiprocess`` backend's worker-process
    fan-out (null = one per core, capped at the block count).
    """

    _section = "compute"

    processes: int | None = None

    def __post_init__(self) -> None:
        if self.processes is not None and self.processes < 1:
            raise SpecError("compute", "processes must be >= 1")


@dataclass
class BaselineSection:
    """Which comparison method the ``baseline`` backend trains with
    (see :data:`repro.training.BASELINE_TRAINERS`)."""

    _section = "baseline"

    method: str = "bp"

    def __post_init__(self) -> None:
        from repro.training import BASELINE_TRAINERS

        if self.method not in BASELINE_TRAINERS:
            raise SpecError(
                "baseline",
                f"unknown method {self.method!r}; "
                f"available: {', '.join(BASELINE_TRAINERS)}",
            )


@dataclass
class BudgetsSection:
    """Resource envelope: training memory, epochs, optional time budget."""

    _section = "budgets"

    memory_mb: float = 64.0
    epochs: int = 1
    time_budget_s: float | None = None

    def __post_init__(self) -> None:
        if self.memory_mb <= 0:
            raise SpecError("budgets", "memory_mb must be positive")
        if self.epochs < 1:
            raise SpecError("budgets", "epochs must be >= 1")
        if self.time_budget_s is not None and self.time_budget_s <= 0:
            raise SpecError("budgets", "time_budget_s must be positive")

    @property
    def memory_bytes(self) -> int:
        return int(self.memory_mb * 2**20)


# --------------------------------------------------------------------- #
# the spec                                                              #
# --------------------------------------------------------------------- #
@dataclass
class JobSpec:
    """One declarative, validated, JSON-round-trippable job description."""

    backend: str = "sequential"
    platform: str = "agx_orin"
    model: ModelSection = field(default_factory=ModelSection)
    data: DataSection = field(default_factory=DataSection)
    neuroflux: NeuroFluxConfig = field(default_factory=NeuroFluxConfig)
    budgets: BudgetsSection = field(default_factory=BudgetsSection)
    cluster: ClusterSection | None = None
    runtime: RuntimeSection | None = None
    federated: FederatedSection | None = None
    serving: ServingSection | None = None
    fleet: FleetSection | None = None
    observability: ObservabilitySection | None = None
    compute: ComputeSection | None = None
    baseline: BaselineSection | None = None

    def __post_init__(self) -> None:
        self.validate()

    # -- validation --------------------------------------------------------
    def validate(self) -> None:
        """Structural + cross-section validation (see module docstring).

        Also materializes the workload sections the backend defaults in,
        so backends can rely on their section being present.
        """
        from repro.api.registry import get_backend

        backend = get_backend(self.backend)  # SpecError on an unknown name
        self._check_names()
        # Backend-independent rule: a runtime adapts a *cluster* run.
        if self.runtime is not None and self.cluster is None:
            raise SpecError(
                "runtime",
                "a runtime section requires a cluster section "
                "(there is nothing to adapt on a single device)",
            )
        for section in backend.defaults:
            if getattr(self, section) is None:
                setattr(self, section, _SECTION_TYPES[section]())
        if backend.needs_cluster and self.cluster is None:
            raise SpecError(
                "cluster",
                f"the {self.backend!r} backend requires a cluster section "
                "(hardware is never defaulted in)",
            )
        for section in backend.forbids:
            if getattr(self, section) is not None:
                raise SpecError(
                    section,
                    f"a {section} section conflicts with backend "
                    f"{self.backend!r}; drop the section or re-target the "
                    f"spec with with_backend()/--backend",
                )
        if backend.rejects_time_budget and self.budgets.time_budget_s is not None:
            raise SpecError(
                "budgets",
                f"the {self.backend!r} backend cannot stop on time_budget_s "
                "(it would be ignored); drop it or use a backend that "
                "honours it, e.g. 'sequential' or 'pipelined'",
            )

    def _check_names(self) -> None:
        """Fail fast on unknown model/dataset/platform names -- before any
        training is paid for."""
        from repro.data.registry import list_datasets
        from repro.hw.platforms import get_platform
        from repro.models.zoo import list_models

        if self.model.name not in list_models():
            raise SpecError(
                "model",
                f"unknown model {self.model.name!r}; available: {list_models()}",
            )
        if self.data.dataset not in list_datasets():
            raise SpecError(
                "data",
                f"unknown dataset {self.data.dataset!r}; "
                f"available: {list_datasets()}",
            )
        try:
            get_platform(self.platform)
        except ConfigError as exc:
            raise SpecError("jobspec", str(exc)) from exc
        for name in self._platform_names():
            try:
                get_platform(name)
            except ConfigError as exc:
                raise SpecError(
                    "cluster" if self.cluster is not None else "federated",
                    str(exc),
                ) from exc

    def _platform_names(self) -> list[str]:
        names = []
        if self.cluster is not None:
            names.extend(d.platform for d in self.cluster.devices)
        if self.federated is not None and self.federated.platforms:
            names.extend(self.federated.platforms)
        return names

    # -- serialization -----------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-pure dict: tuples become lists, absent sections are omitted."""
        out: dict = {"backend": self.backend, "platform": self.platform}
        for name in _SECTION_TYPES:
            section = getattr(self, name)
            if section is not None:
                out[name] = _jsonify(dataclasses.asdict(section))
        return out

    @classmethod
    def from_dict(cls, payload: dict, backend: str | None = None) -> "JobSpec":
        """Build a validated spec from a (JSON-shaped) dict.

        Unknown keys -- top-level or inside any section -- raise
        :class:`SpecError` naming the section.  ``backend`` re-targets
        the spec at another backend, dropping the sections that backend
        forbids (the CLI's ``--backend``).
        """
        if not isinstance(payload, dict):
            raise SpecError(
                "jobspec", f"spec must be a mapping, got {type(payload).__name__}"
            )
        known = {"backend", "platform", *_SECTION_TYPES}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise SpecError(
                "jobspec",
                f"unknown key(s): {', '.join(unknown)}; "
                f"known: {', '.join(sorted(known))}",
            )
        chosen = backend if backend is not None else payload.get("backend", "sequential")
        if not isinstance(chosen, str):
            raise SpecError("jobspec", "backend must be a string")
        platform = payload.get("platform", "agx_orin")
        if not isinstance(platform, str):
            raise SpecError("jobspec", "platform must be a platform short name")

        sections: dict = {}
        for name, section_cls in _SECTION_TYPES.items():
            raw = payload.get(name)
            if raw is None:
                sections[name] = None
                continue
            sections[name] = _section_from_dict(section_cls, raw, name)
        if backend is not None:
            # Re-targeting: drop whatever the chosen backend forbids, so
            # one spec file can drive every registered backend.
            from repro.api.registry import get_backend

            for name in get_backend(chosen).forbids:
                sections[name] = None
        for name in ("model", "data", "budgets"):
            if sections[name] is None:
                sections[name] = _SECTION_TYPES[name]()
        if sections["neuroflux"] is None:
            sections["neuroflux"] = NeuroFluxConfig()
        return cls(backend=chosen, platform=platform, **sections)

    @classmethod
    def from_json_file(cls, path: str, backend: str | None = None) -> "JobSpec":
        """Load and validate a spec from a JSON file.

        Malformed JSON and unreadable files raise :class:`SpecError`
        (section ``"jobspec"``) -- the CLI turns these into a clean
        exit-code-2 message, never a traceback.
        """
        try:
            with open(path) as fh:
                payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SpecError("jobspec", f"malformed JSON in {path}: {exc}") from exc
        except OSError as exc:
            raise SpecError("jobspec", f"cannot read spec file {path}: {exc}") from exc
        return cls.from_dict(payload, backend=backend)

    def with_backend(self, backend: str) -> "JobSpec":
        """A copy re-targeted at ``backend``.

        Sections the new backend forbids are dropped and workload
        sections it needs are defaulted in, so any spec can be re-aimed
        at any registered backend (hardware sections are still never
        invented: re-targeting a cluster-less spec at ``pipelined``
        raises).
        """
        return JobSpec.from_dict(self.to_dict(), backend=backend)

    def overlay(self, overrides: dict, retarget: bool = False) -> "JobSpec":
        """A fresh spec with dotted-path ``overrides`` applied.

        ``overrides`` maps dotted section paths to values, e.g.
        ``{"budgets.memory_mb": 200, "neuroflux.rho": 0.3,
        "backend": "pipelined"}``.  The result shares *nothing* with this
        spec: the base is deep-copied before patching, so overlaying a
        value onto a section that was defaulted-in (or mutating the
        returned spec) can never leak back into the base -- the property
        the sweep engine's expansion relies on.

        With ``retarget=True`` an overridden ``backend`` behaves like
        :meth:`with_backend` / the CLI's ``--backend``: sections the new
        backend forbids are dropped instead of raising.
        """
        payload = overlay_spec_dict(self.to_dict(), overrides)
        backend = payload.get("backend", "sequential") if retarget else None
        return JobSpec.from_dict(payload, backend=backend)


_SECTION_TYPES: dict[str, type] = {
    "model": ModelSection,
    "data": DataSection,
    "neuroflux": NeuroFluxConfig,
    "budgets": BudgetsSection,
    "cluster": ClusterSection,
    "runtime": RuntimeSection,
    "federated": FederatedSection,
    "serving": ServingSection,
    "fleet": FleetSection,
    "observability": ObservabilitySection,
    "compute": ComputeSection,
    "baseline": BaselineSection,
}


# --------------------------------------------------------------------- #
# helpers                                                               #
# --------------------------------------------------------------------- #
def overlay_spec_dict(payload: dict, overrides: dict) -> dict:
    """A deep copy of a JobSpec dict with dotted-path overrides applied.

    Each override key is a dotted path into the spec dict
    (``"budgets.memory_mb"``, ``"neuroflux.rho"``, top-level scalars like
    ``"backend"``).  Intermediate mappings are created when absent, so a
    grid can set ``"serving.arrival_rate"`` on a base that omits the
    ``serving`` section entirely.  The input is never mutated and the
    output shares no structure with it (override values are deep-copied
    too), so repeated overlays of one base can never alias each other.

    Raises :class:`SpecError` when a path descends into a non-mapping
    (e.g. ``"model.name.x"``).
    """
    if not isinstance(payload, dict):
        raise SpecError(
            "jobspec", f"spec must be a mapping, got {type(payload).__name__}"
        )
    out = copy.deepcopy(payload)
    for path, value in overrides.items():
        if not isinstance(path, str) or not path:
            raise SpecError(
                "jobspec", f"override path must be a non-empty string, got {path!r}"
            )
        parts = path.split(".")
        node = out
        for depth, part in enumerate(parts[:-1]):
            child = node.get(part)
            if child is None:
                child = {}
                node[part] = child
            elif not isinstance(child, dict):
                raise SpecError(
                    "jobspec",
                    f"override path {path!r} descends into "
                    f"{'.'.join(parts[: depth + 1])!r}, which is not a section",
                )
            node = child
        node[parts[-1]] = copy.deepcopy(value)
    return out


def _section_from_dict(section_cls: type, payload, section: str):
    """Parse one section dict, rejecting unknown keys."""
    if section_cls is NeuroFluxConfig:
        try:
            return NeuroFluxConfig.from_dict(payload)
        except SpecError:
            raise
        except (ConfigError, TypeError) as exc:
            raise SpecError("neuroflux", str(exc)) from exc
    if not isinstance(payload, dict):
        raise SpecError(
            section, f"must be a mapping, got {type(payload).__name__}"
        )
    known = {f.name for f in fields(section_cls)}
    unknown = sorted(set(payload) - known)
    if unknown:
        raise SpecError(
            section,
            f"unknown key(s): {', '.join(unknown)}; "
            f"known: {', '.join(sorted(known))}",
        )
    kwargs = {}
    for key, value in payload.items():
        if isinstance(value, (dict, list)):
            # Never alias the caller's nested structure: two specs built
            # from one payload (or one spec and the payload itself) must
            # not share e.g. a runtime/fleet ``events`` dict.
            value = copy.deepcopy(value)
        if key in _TUPLE_FIELDS and isinstance(value, list):
            value = tuple(value)
        if section == "cluster" and key == "devices":
            value = _parse_devices(value)
        kwargs[key] = value
    try:
        return section_cls(**kwargs)
    except SpecError:
        raise
    except (ConfigError, TypeError) as exc:
        raise SpecError(section, str(exc)) from exc


def _parse_devices(raw) -> list[DeviceSection]:
    """Devices accept the shorthand ``["nano", "agx-orin"]`` or dicts."""
    if not isinstance(raw, list):
        raise SpecError("cluster", "devices must be a list")
    devices = []
    for entry in raw:
        if isinstance(entry, DeviceSection):
            devices.append(entry)
        elif isinstance(entry, str):
            devices.append(DeviceSection(platform=entry))
        elif isinstance(entry, dict):
            unknown = sorted(set(entry) - {"platform", "memory_budget"})
            if unknown:
                raise SpecError(
                    "cluster", f"unknown device key(s): {', '.join(unknown)}"
                )
            if "platform" not in entry:
                raise SpecError("cluster", "every device needs a platform")
            devices.append(DeviceSection(**entry))
        else:
            raise SpecError(
                "cluster",
                "devices entries must be platform names or "
                "{platform, memory_budget} mappings",
            )
    return devices


def _jsonify(value):
    """Recursively convert tuples to lists (JSON purity)."""
    if isinstance(value, tuple):
        return [_jsonify(v) for v in value]
    if isinstance(value, list):
        return [_jsonify(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonify(v) for k, v in value.items()}
    return value
