"""repro.obs -- unified observability: tracing, metrics, exporters.

One tracer model (:mod:`repro.obs.trace`), one metrics model
(:mod:`repro.obs.metrics`), and the callbacks that wire both into every
backend (:mod:`repro.obs.callbacks`).  See the README "Observability"
section for the end-to-end workflow.
"""

from repro.obs.callbacks import (
    CsvMetricsCallback,
    MetricsCallback,
    ProgressCallback,
    TracingCallback,
    build_observability_callbacks,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    percentile,
)
from repro.obs.trace import (
    Span,
    Tracer,
    activate,
    active_tracer,
    deactivate,
    validate_monotonic,
    validate_nesting,
)

__all__ = [
    "Counter",
    "CsvMetricsCallback",
    "Gauge",
    "Histogram",
    "MetricsCallback",
    "MetricsRegistry",
    "ProgressCallback",
    "Span",
    "Tracer",
    "TracingCallback",
    "activate",
    "active_tracer",
    "build_observability_callbacks",
    "deactivate",
    "percentile",
    "validate_monotonic",
    "validate_nesting",
]
