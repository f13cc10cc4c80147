"""repro.api: one declarative front door for every workload.

The reproduction spans five subsystems (sequential training, pipelined
cluster training, synchronous/asynchronous federated learning, and
early-exit serving); each historically exposed its own entry point and
argument shape.  This package redesigns the public surface around three
pieces:

* :class:`JobSpec` -- a typed, validated, JSON-round-trippable job
  description composed of sections (``model``, ``data``, ``neuroflux``,
  ``cluster``, ``runtime``, ``federated``, ``serving``, ``budgets``,
  ``compute``);
* a backend registry -- ``@register_backend("sequential")`` etc. adapt
  each subsystem behind one ``Backend.run(spec, callbacks) -> Report``
  protocol, so :func:`run` is the single entry point;
* a unified :class:`Callback` protocol every subsystem emits through,
  and the :class:`Report` base class every result subclasses (it writes
  the JSON head and the base metrics; each report adds its own fields),
  replacing the per-subsystem hook styles and report shapes.

Quick start::

    from repro.api import JobSpec, run

    spec = JobSpec.from_dict({
        "backend": "sequential",
        "model": {"name": "vgg11", "width_multiplier": 0.25},
        "data": {"dataset": "cifar10", "scale": 0.01},
        "budgets": {"memory_mb": 64, "epochs": 3},
    })
    report = run(spec)
    print(report.summary())

The same spec can be re-targeted (``spec.with_backend("pipelined")``,
or ``repro run spec.json --backend pipelined`` on the CLI).

This ``__init__`` resolves its attributes lazily (PEP 562) so that the
training substrate can import :mod:`repro.api.callbacks` without pulling
the whole backend stack into every import.
"""

from __future__ import annotations

_EXPORTS = {
    # callbacks
    "BatchInfo": "repro.api.callbacks",
    "Callback": "repro.api.callbacks",
    "CallbackList": "repro.api.callbacks",
    "RecordingCallback": "repro.api.callbacks",
    "as_callback_list": "repro.api.callbacks",
    # spec
    "BudgetsSection": "repro.api.spec",
    "ClusterSection": "repro.api.spec",
    "ComputeSection": "repro.api.spec",
    "DataSection": "repro.api.spec",
    "DeviceSection": "repro.api.spec",
    "FederatedSection": "repro.api.spec",
    "FleetSection": "repro.api.spec",
    "JobSpec": "repro.api.spec",
    "ModelSection": "repro.api.spec",
    "ObservabilitySection": "repro.api.spec",
    "RuntimeSection": "repro.api.spec",
    "ServingSection": "repro.api.spec",
    "overlay_spec_dict": "repro.api.spec",
    # registry + entry point
    "Backend": "repro.api.registry",
    "JobContext": "repro.api.registry",
    "available_backends": "repro.api.registry",
    "get_backend": "repro.api.registry",
    "register_backend": "repro.api.registry",
    "run": "repro.api.registry",
    # report base
    "Report": "repro.api.report",
    "REPORT_SCHEMA_KEYS": "repro.api.report",
    "json_num": "repro.api.report",
    "merge_ledger_summaries": "repro.api.report",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro.api' has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value  # cache for subsequent lookups
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
