"""Unit tests for repro.obs: tracer, metrics registry, exporters."""

from __future__ import annotations

import json
import math
import struct
from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Span,
    Tracer,
    activate,
    active_tracer,
    deactivate,
    percentile,
    validate_monotonic,
    validate_nesting,
)
from repro.obs.metrics import metric_key


@pytest.fixture(autouse=True)
def _clean_active_tracer():
    deactivate()
    yield
    deactivate()


class TestPercentile:
    def test_matches_numpy_linear_interpolation(self):
        rng = np.random.default_rng(0)
        values = rng.random(37).tolist()
        for q in (0, 1, 25, 50, 75, 90, 95, 99, 100):
            assert percentile(values, q) == pytest.approx(
                float(np.percentile(values, q)), abs=1e-12
            )

    def test_single_value_and_empty(self):
        assert percentile([4.2], 99) == 4.2
        with pytest.raises(ValueError, match="empty sample"):
            percentile([], 50)
        assert math.isnan(percentile([], 50, empty=float("nan")))
        assert percentile([], 50, empty=None) is None

    def test_empty_histogram_guards(self):
        snap = Histogram().snapshot()
        assert snap["count"] == 0
        assert snap["mean"] is None
        assert snap["p50"] is None and snap["p99"] is None

    def test_clamps_out_of_range_q(self):
        assert percentile([1.0, 2.0], -5) == 1.0
        assert percentile([1.0, 2.0], 150) == 2.0

    @pytest.mark.parametrize(
        "values",
        [[3.0, math.nan, 1.0, 2.0], [math.nan, 3.0, 1.0, 2.0], [3.0, 1.0, math.nan, 2.0]],
        ids=["nan-second", "nan-first", "nan-third"],
    )
    def test_nan_anywhere_is_nan_everywhere(self, values):
        """Order statistics of a sample holding NaN do not depend on
        where the NaN arrived: all are NaN (null in JSON), like sum and
        mean."""
        for q in (0, 50, 95, 99, 100):
            assert math.isnan(percentile(values, q))
        snap = Histogram(values).snapshot()
        for key in ("sum", "mean", "min", "max", "p50", "p95", "p99"):
            assert snap[key] is None, key
        assert snap["count"] == 4


def _percentile_of_sorted_list(values, q):
    """The pure-python list form the float64 column replaced: the
    reference the column must match bit for bit on NaN-free samples."""
    data = sorted(values)
    q = min(100.0, max(0.0, q))
    rank = q / 100.0 * (len(data) - 1)
    lo, hi = math.floor(rank), math.ceil(rank)
    if lo == hi:
        return float(data[int(rank)])
    frac = rank - lo
    return float(data[lo] * (1.0 - frac) + data[hi] * frac)


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


_SUBNORMALS = [5e-324, -5e-324, 2.225073858507201e-308, 1e-310, 0.0, -0.0]
#: Finite samples with forced ties (values drawn from a small pool) and
#: subnormals in the pool; length 1 included.
_samples = st.lists(
    st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.sampled_from(_SUBNORMALS),
    ),
    min_size=1,
    max_size=6,
).flatmap(lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=40))
#: q inside [0, 100] and beyond it on both sides (clamped).
_qs = st.one_of(
    st.floats(min_value=0.0, max_value=100.0),
    st.floats(min_value=-1e3, max_value=-1e-9),
    st.floats(min_value=100.0 + 1e-9, max_value=1e3),
    st.sampled_from([0.0, 12.5, 33.3, 50.0, 95.0, 99.0, 100.0]),
)


class TestColumns:
    """Float64 columns compute exactly what Python-float lists computed."""

    @settings(deadline=None, max_examples=200)
    @given(xs=_samples, q=_qs)
    def test_percentile_column_equals_list(self, xs, q):
        column = percentile(array("d", xs), q)
        assert _bits(column) == _bits(percentile(xs, q))
        assert _bits(column) == _bits(_percentile_of_sorted_list(xs, q))

    @settings(deadline=None, max_examples=100)
    @given(xs=_samples)
    def test_histogram_snapshot_column_equals_list(self, xs):
        from_list = Histogram(xs)
        from_column = Histogram(array("d", xs))
        observed = Histogram()
        for x in xs:
            observed.observe(x)
        extended = Histogram()
        extended.extend(xs)
        expected = json.dumps(from_list.snapshot())
        for h in (from_column, observed, extended):
            assert json.dumps(h.snapshot()) == expected
        assert _bits(from_column.total) == _bits(sum(xs))

    @settings(deadline=None, max_examples=50)
    @given(xs=_samples, ys=_samples)
    def test_merge_copies_never_aliases(self, xs, ys):
        source = MetricsRegistry()
        source.histogram("h").extend(xs)
        fresh = MetricsRegistry().merge(source)  # key absent: a new column
        pooled = MetricsRegistry()
        pooled.histogram("h").extend(ys)
        pooled.merge(source)  # key present: appended to
        fresh.histogram("h").observe(1.0)
        pooled.histogram("h").observe(1.0)
        src = source.histogram("h").samples
        assert [_bits(v) for v in src] == [_bits(v) for v in xs]
        assert len(fresh.histogram("h").samples) == len(xs) + 1
        assert len(pooled.histogram("h").samples) == len(ys) + len(xs) + 1

    def test_construction_copies_the_column(self):
        column = array("d", [1.0, 2.0])
        h = Histogram(column)
        h.observe(3.0)
        assert list(column) == [1.0, 2.0]


class TestMetrics:
    def test_counter_monotonic(self):
        c = Counter()
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_set(self):
        g = Gauge()
        g.set(7)
        g.set(-2.5)
        assert g.value == -2.5

    def test_histogram_snapshot(self):
        h = Histogram()
        for v in (1.0, 2.0, 3.0, 4.0):
            h.observe(v)
        snap = h.snapshot()
        assert snap["type"] == "histogram"
        assert snap["count"] == 4
        assert snap["sum"] == 10.0
        assert snap["mean"] == 2.5
        assert snap["min"] == 1.0 and snap["max"] == 4.0
        assert snap["p50"] == 2.5

    def test_metric_key_sorts_labels(self):
        assert metric_key("x", {"b": 1, "a": "y"}) == 'x{a="y",b="1"}'
        assert metric_key("x", {}) == "x"

    def test_registry_get_or_create_and_type_conflict(self):
        reg = MetricsRegistry()
        c = reg.counter("reqs", backend="serving")
        assert reg.counter("reqs", backend="serving") is c
        with pytest.raises(ValueError):
            reg.gauge("reqs", backend="serving")

    def test_registry_merge(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("n").inc(2)
        b.counter("n").inc(3)
        a.gauge("g").set(1.0)
        b.gauge("g").set(9.0)
        a.histogram("h").observe(1.0)
        b.histogram("h").observe(3.0)
        a.merge(b)
        snap = a.snapshot()
        assert snap["n"]["value"] == 5.0
        assert snap["g"]["value"] == 9.0  # gauges: last writer wins
        assert snap["h"]["count"] == 2

    def test_snapshot_keys_sorted_and_json_pure(self):
        reg = MetricsRegistry()
        reg.counter("z").inc()
        reg.gauge("a").set(float("nan"))
        snap = reg.snapshot()
        assert list(snap) == sorted(snap)
        assert snap["a"]["value"] is None  # NaN -> null
        json.dumps(snap)

    def test_write_json(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("n").inc()
        path = tmp_path / "m.json"
        reg.write_json(str(path))
        payload = json.loads(path.read_text())
        assert payload["schema"] == 1
        assert payload["metrics"]["n"]["value"] == 1.0


class TestTracer:
    def test_add_span_sequential_ids_and_attrs(self):
        t = Tracer()
        s0 = t.add_span("a", "train", "dev0", 0.0, 1.0)
        s1 = t.add_span("b", "train", "dev0", 1.0, 2.0, attrs={"k": 1})
        assert (s0.span_id, s1.span_id) == (0, 1)
        assert s1.attrs == {"k": 1}
        assert len(t) == 2

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Tracer().add_span("a", "c", "t", 0.0, 1.0, kind="weird")

    def test_context_manager_nesting_parents(self):
        t = Tracer(clock=iter([0.0, 1.0, 2.0, 3.0]).__next__)
        with t.span("outer", "train") as outer:
            with t.span("inner", "train") as inner:
                pass
        assert inner.parent_id == outer.span_id
        assert outer.start_s == 0.0 and inner.start_s == 1.0
        assert inner.end_s == 2.0 and outer.end_s == 3.0
        assert not validate_nesting(t.spans)

    def test_tracks_first_appearance_order(self):
        t = Tracer()
        t.add_span("a", "c", "beta", 0.0, 1.0)
        t.add_span("b", "c", "alpha", 0.0, 1.0)
        t.add_span("c", "c", "beta", 1.0, 2.0)
        assert t.tracks() == ["beta", "alpha"]

    def test_flow_links_spans(self):
        t = Tracer()
        src = t.add_span("out", "migration", "m", 0.0, 1.0)
        dst = t.add_span("in", "migration", "m", 1.0, 2.0)
        fid = t.add_flow("move", src, dst)
        assert t.flows[fid]["src"] == src.span_id
        assert t.flows[fid]["dst"] == dst.span_id

    def test_active_tracer_registry(self):
        assert active_tracer() is None
        t = activate(Tracer())
        assert active_tracer() is t
        deactivate()
        assert active_tracer() is None


class TestValidators:
    def test_nesting_accepts_siblings_and_children(self):
        spans = [
            Span(0, "parent", "c", "t", 0.0, 10.0),
            Span(1, "child", "c", "t", 1.0, 4.0),
            Span(2, "sibling", "c", "t", 5.0, 9.0),
            Span(3, "next", "c", "t", 10.0, 12.0),
        ]
        assert validate_nesting(spans) == []

    def test_nesting_rejects_partial_overlap(self):
        spans = [
            Span(0, "a", "c", "t", 0.0, 5.0),
            Span(1, "b", "c", "t", 3.0, 8.0),
        ]
        assert validate_nesting(spans)

    def test_nesting_rejects_negative_duration(self):
        assert validate_nesting([Span(0, "a", "c", "t", 2.0, 1.0)])

    def test_async_spans_may_overlap(self):
        spans = [
            Span(0, "a", "c", "t", 0.0, 5.0, kind="async"),
            Span(1, "b", "c", "t", 3.0, 8.0, kind="async"),
        ]
        assert validate_nesting(spans) == []
        assert validate_monotonic(spans) == []

    def test_monotonic_rejects_backwards_starts(self):
        spans = [
            Span(0, "a", "c", "t", 5.0, 6.0),
            Span(1, "b", "c", "t", 1.0, 2.0),
        ]
        assert validate_monotonic(spans)


class TestChromeExport:
    def _tracer(self) -> Tracer:
        t = Tracer()
        t.add_span("step", "train", "dev0", 0.0, 0.5, attrs={"n": 1})
        t.instant("drift", "runtime-decision", "runtime", 0.25)
        t.add_span("xfer", "communication", "dev0", 0.5, 0.7, kind="async")
        out = t.add_span("out", "migration", "m", 0.7, 0.8)
        dst = t.add_span("in", "migration", "m", 0.8, 0.9)
        t.add_flow("move", out, dst)
        return t

    def test_event_phases_and_track_metadata(self):
        payload = self._tracer().to_chrome_dict()
        events = payload["traceEvents"]
        phases = [e["ph"] for e in events]
        assert phases.count("M") == 1 + 3  # process + one per track
        assert "X" in phases and "i" in phases
        assert phases.count("b") == 1 and phases.count("e") == 1
        assert phases.count("s") == 1 and phases.count("f") == 1
        names = {
            e["args"]["name"] for e in events if e["name"] == "thread_name"
        }
        assert names == {"dev0", "runtime", "m"}

    def test_timestamps_are_microseconds(self):
        events = self._tracer().to_chrome_dict()["traceEvents"]
        step = next(e for e in events if e.get("ph") == "X" and e["name"] == "step")
        assert step["ts"] == 0.0
        assert step["dur"] == 500000.0

    def test_write_chrome_byte_stable(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        self._tracer().write_chrome(str(p1))
        self._tracer().write_chrome(str(p2))
        assert p1.read_bytes() == p2.read_bytes()
        json.loads(p1.read_text())

    def test_write_jsonl_one_object_per_span_plus_flows(self, tmp_path):
        t = self._tracer()
        path = tmp_path / "spans.jsonl"
        t.write_jsonl(str(path))
        lines = path.read_text().splitlines()
        assert len(lines) == len(t.spans) + len(t.flows)
        first = json.loads(lines[0])
        assert first["name"] == "step" and first["cat"] == "train"
        last = json.loads(lines[-1])
        assert "flow_id" in last and {"src", "dst"} <= set(last)
