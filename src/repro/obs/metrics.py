"""Labelled metrics: counters, gauges, histograms, and one registry.

The registry is the single aggregation model every Report embeds (under
the ``metrics`` key of ``to_json_dict``) and every ``MetricsCallback``
run exports.  It deliberately mirrors the Prometheus data model at its
simplest: a metric is a name plus a sorted label set, and a snapshot is
one flat JSON-friendly dict keyed ``name{label="value",...}``.

The percentile helper here is the one implementation the repo uses for
latency quantiles (serving percentiles route through it): linear
interpolation on the sorted sample (see :func:`percentile` for how it
differs from ``numpy.percentile`` in the last bits).

A histogram holds its samples as one float64 column (``array("d")``,
8 bytes a sample, against 32 for a list of Python floats); its order
statistics come from one numpy sort of that column.

No repro imports, like ``repro.obs.trace``, so report modules at any
layer can import it without cycles.
"""

from __future__ import annotations

import json
import math
from array import array
from dataclasses import dataclass, field

import numpy as np


#: Sentinel: ``percentile`` raises on empty samples unless a default is given.
_RAISE = object()


def percentile(values, q: float, *, empty=_RAISE) -> float:
    """The ``q``-th percentile of ``values`` by linear interpolation.

    ``values`` is any float sequence (a list, an ``array("d")`` column,
    a numpy array).  Between the two order statistics ``a <= b`` around
    the rank it returns ``a * (1 - t) + b * t``; ``numpy.percentile``
    uses a two-sided lerp instead, so the two agree to the last few bits
    but not bit for bit.  The committed goldens pin this form -- keep
    it.  A sample holding any NaN has NaN percentiles (rendered ``null``
    in JSON), whatever order the NaN arrived in.

    An empty sample has no percentiles: the call raises a ``ValueError``
    unless ``empty=`` supplies an explicit fallback (callers that render
    optional latency tables pass ``float("nan")`` and let the JSON layer
    map it to ``null``).  ``q`` is clamped to [0, 100].
    """
    if len(values) == 0:
        if empty is _RAISE:
            raise ValueError(
                f"cannot take the p{q:g} of an empty sample; "
                "pass empty=<fallback> to tolerate it"
            )
        return empty
    return percentile_of_sorted(sorted_column(values), q)


def sorted_column(values) -> np.ndarray:
    """``values`` as one sorted float64 column, NaNs last.

    Stable, so equal values (``0.0`` and ``-0.0``) keep their arrival
    order.
    """
    return np.sort(np.asarray(values, dtype=np.float64), kind="stable")


def percentile_of_sorted(data: np.ndarray, q: float) -> float:
    """The ``q``-th percentile of the non-empty column ``data`` that
    :func:`sorted_column` returned: :func:`percentile` without its sort,
    for a caller that takes several from one sample."""
    if math.isnan(data[-1]):
        return float("nan")
    q = min(100.0, max(0.0, q))
    rank = q / 100.0 * (len(data) - 1)
    lo = math.floor(rank)
    hi = math.ceil(rank)
    if lo == hi:
        return float(data[int(rank)])
    frac = rank - lo
    return float(data[lo]) * (1.0 - frac) + float(data[hi]) * frac


@dataclass
class Counter:
    """A monotonically increasing total."""

    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge for deltas")
        self.value += amount

    def snapshot(self) -> dict:
        return {"type": "counter", "value": _num(self.value)}


@dataclass
class Gauge:
    """A value that can go anywhere (last write wins)."""

    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def snapshot(self) -> dict:
        return {"type": "gauge", "value": _num(self.value)}


@dataclass
class Histogram:
    """A sample distribution; snapshots count/sum/min/max and quantiles.

    ``samples`` is a float64 column of its own: construction,
    :meth:`observe`, :meth:`extend` and :meth:`MetricsRegistry.merge`
    copy values in and never alias another histogram's column.
    """

    samples: array = field(default_factory=lambda: array("d"))

    def __post_init__(self) -> None:
        self.samples = array("d", self.samples)

    def observe(self, value: float) -> None:
        self.samples.append(value)

    def extend(self, values) -> None:
        """Append every value of ``values`` (any float iterable)."""
        self.samples.extend(values)

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def total(self) -> float:
        # The builtin, not a numpy reduction: pairwise summation would
        # round differently and move every committed ``sum``.
        return sum(self.samples)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else float("nan")

    def snapshot(self) -> dict:
        out = {
            "type": "histogram",
            "count": self.count,
            "sum": _num(self.total),
            "mean": None,
            "min": None,
            "max": None,
            "p50": None,
            "p95": None,
            "p99": None,
        }
        if not self.samples:
            return out
        data = sorted_column(self.samples)  # one sort for all five order stats
        # NaN sorts last, so a NaN anywhere makes min NaN too.
        nan = math.isnan(data[-1])
        out.update(
            mean=_num(self.mean),
            min=_num(float("nan") if nan else data[0]),
            max=_num(data[-1]),
            p50=_num(percentile_of_sorted(data, 50)),
            p95=_num(percentile_of_sorted(data, 95)),
            p99=_num(percentile_of_sorted(data, 99)),
        )
        return out


def _num(value) -> float | None:
    """Round for stable JSON; map NaN/inf to None (JSON has neither)."""
    value = float(value)
    if math.isnan(value) or math.isinf(value):
        return None
    return round(value, 9)


def metric_key(name: str, labels: dict[str, object]) -> str:
    """Canonical key: ``name`` or ``name{a="1",b="x"}`` (labels sorted)."""
    if not labels:
        return name
    inner = ",".join(f'{k}="{labels[k]}"' for k in sorted(labels))
    return f"{name}{{{inner}}}"


class MetricsRegistry:
    """Get-or-create home for every metric of one run."""

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    def __len__(self) -> int:
        return len(self._metrics)

    def _get(self, cls, name: str, labels: dict):
        key = metric_key(name, labels)
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls()
            self._metrics[key] = metric
        elif not isinstance(metric, cls):
            raise ValueError(
                f"metric {key!r} already registered as "
                f"{type(metric).__name__}, not {cls.__name__}"
            )
        return metric

    def counter(self, name: str, **labels) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, **labels) -> Histogram:
        return self._get(Histogram, name, labels)

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold ``other`` in: counters add, gauges overwrite, samples pool."""
        for key, metric in other._metrics.items():
            mine = self._metrics.get(key)
            if mine is None:
                if isinstance(metric, Counter):
                    self._metrics[key] = Counter(metric.value)
                elif isinstance(metric, Gauge):
                    self._metrics[key] = Gauge(metric.value)
                else:
                    self._metrics[key] = Histogram(metric.samples)
            elif isinstance(mine, Counter) and isinstance(metric, Counter):
                mine.inc(metric.value)
            elif isinstance(mine, Gauge) and isinstance(metric, Gauge):
                mine.set(metric.value)
            elif isinstance(mine, Histogram) and isinstance(metric, Histogram):
                mine.extend(metric.samples)
            else:
                raise ValueError(
                    f"cannot merge {type(metric).__name__} into "
                    f"{type(mine).__name__} for metric {key!r}"
                )
        return self

    def update(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Take every metric of ``other``, replacing any of the same key
        (``dict.update``: nothing is added up)."""
        self._metrics.update(other._metrics)
        return self

    def snapshot(self) -> dict:
        """Flat JSON-serializable view, keys sorted (byte-stable)."""
        return {
            key: self._metrics[key].snapshot() for key in sorted(self._metrics)
        }

    def write_json(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(
                {"schema": 1, "metrics": self.snapshot()},
                fh, indent=2, sort_keys=True,
            )
            fh.write("\n")

