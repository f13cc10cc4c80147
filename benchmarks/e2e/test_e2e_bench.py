"""Tests of the e2e benchmark's own machinery (collected by tier-1).

The span arithmetic, wrappers and table guard are tested on synthetic
input; one ``--quick`` run of the whole benchmark (shared by the tests
that need it) checks the output schema, the guard on the real program
and the coverage of the traced phase.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import run as bench_run  # noqa: E402
import schema  # noqa: E402
import span_table  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    """Advances only when told to, so span arithmetic is exact."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def spend(self, seconds: float) -> None:
        self.now += seconds


# --------------------------------------------------------------------- #
# self-time arithmetic                                                  #
# --------------------------------------------------------------------- #
def test_self_time_nested_and_overlapping_children():
    #   0: parent        [0, 10]
    #   1:   child       [1, 4]   (has a grandchild)
    #   2:     grandchild[2, 3]
    #   3:   child       [3, 6]   overlaps child 1 on [3, 4]
    #   4:   child       [8, 12]  runs past the parent: clipped to [8, 10]
    start = [0.0, 1.0, 2.0, 3.0, 8.0]
    end = [10.0, 4.0, 3.0, 6.0, 12.0]
    parent = [-1, 0, 1, 0, 0]
    selfs = tracing.self_times(start, end, parent)
    # parent: 10 - |[1,6] U [8,10]| = 10 - 7; the grandchild is not its child
    assert selfs == pytest.approx([3.0, 2.0, 1.0, 3.0, 4.0])


def test_self_times_sum_to_top_level_time_when_properly_nested():
    clock = FakeClock()
    rec = tracing.SpanRecorder(clock=clock)
    outer, inner = rec.name_id("outer"), rec.name_id("inner")
    a = rec.open(outer)
    clock.spend(1)
    for _ in range(3):
        b = rec.open(inner)
        clock.spend(2)
        rec.close(b)
        clock.spend(0.5)
    rec.close(a)
    summary = rec.summary()
    assert summary["outer"] == {"calls": 1, "total_s": 8.5, "self_s": 2.5}
    assert summary["inner"] == {"calls": 3, "total_s": 6.0, "self_s": 6.0}
    assert sum(row["self_s"] for row in summary.values()) == pytest.approx(8.5)
    assert rec.covered_s((0.0, 8.5)) == pytest.approx(8.5)
    assert rec.covered_s((8.0, 20.0)) == pytest.approx(0.5)


def test_inclusive_total_counts_recursion_once():
    clock = FakeClock()
    rec = tracing.SpanRecorder(clock=clock)
    nid = rec.name_id("recursive")
    a = rec.open(nid)
    clock.spend(1)
    b = rec.open(nid)
    clock.spend(2)
    rec.close(b)
    rec.close(a)
    assert rec.summary()["recursive"] == {"calls": 2, "total_s": 3.0, "self_s": 3.0}
    assert list(rec._parent) == [-1, 0]


# --------------------------------------------------------------------- #
# wrappers                                                              #
# --------------------------------------------------------------------- #
def test_generator_wrapper_times_next_not_creation():
    clock = FakeClock()
    rec = tracing.SpanRecorder(clock=clock)

    def produce(n):
        clock.spend(5)  # first next() pays this, not the call
        for i in range(n):
            clock.spend(1)
            yield i

    wrapped = tracing.wrap_callable(
        rec, produce, "gen", "mod.produce", measure=lambda a, k, item: {"sum": item}
    )
    iterator = wrapped(3)
    assert len(rec) == 0 and rec.counters["calls:mod.produce"] == 1
    clock.spend(100)  # the consumer's own time between creation and use
    assert next(iterator) == 0
    clock.spend(100)  # ... and between items: none of it is the generator's
    assert list(iterator) == [1, 2]
    summary = rec.summary()["gen"]
    assert summary["calls"] == 4  # three items and the final StopIteration
    assert summary["total_s"] == pytest.approx(8.0)
    assert rec.counters["gen.items"] == 3 and rec.counters["sum"] == 3


def test_function_wrapper_records_span_on_exception():
    rec = tracing.SpanRecorder(clock=FakeClock())

    def boom():
        raise ValueError("x")

    wrapped = tracing.wrap_callable(rec, boom, "boom", "mod.boom")
    with pytest.raises(ValueError):
        wrapped()
    assert len(rec) == 1 and rec._stack == []


@pytest.fixture
def fake_package():
    """``e2efake.a`` defines things; ``e2efake.b`` imports ``f`` by name."""
    pkg = types.ModuleType("e2efake")
    a = types.ModuleType("e2efake.a")
    b = types.ModuleType("e2efake.b")
    exec(
        "def f(x):\n    return x + 1\n"
        "def _hidden():\n    return 0\n"
        "class Base:\n"
        "    def method(self):\n        return 'base'\n"
        "    @classmethod\n"
        "    def make(cls):\n        return cls()\n"
        "class Derived(Base):\n    pass\n",
        a.__dict__,
    )
    b.renamed = a.f
    pkg.a, pkg.b = a, b
    modules = {"e2efake": pkg, "e2efake.a": a, "e2efake.b": b}
    sys.modules.update(modules)
    yield pkg
    for name in modules:
        sys.modules.pop(name, None)


def _row(target, span="s", **kwargs):
    return span_table.SpanRow("fake", target, span, **kwargs)


def test_installer_patches_every_binding_and_restores(fake_package):
    a, b = fake_package.a, fake_package.b
    original = a.f
    rec = tracing.SpanRecorder()
    with tracing.Installer(rec, package="e2efake") as installer:
        installer.install([_row("e2efake.a.f")])
        assert a.f is not original and b.renamed is a.f
        assert b.renamed(1) == 2
        assert rec.counters["calls:e2efake.a.f"] == 1
    assert a.f is original and b.renamed is original


def test_installer_wraps_methods_classmethods_and_inherited(fake_package):
    a = fake_package.a
    rec = tracing.SpanRecorder()
    with tracing.Installer(rec, package="e2efake") as installer:
        installer.install([
            _row("e2efake.a.Derived.method", "m"),
            _row("e2efake.a.Base.make", "mk"),
        ])
        assert a.Derived().method() == "base"
        assert a.Base().method() == "base"  # only Derived was named
        assert isinstance(a.Derived.make(), a.Derived)
        assert rec.counters["calls:e2efake.a.Derived.method"] == 1
        assert rec.counters["calls:e2efake.a.Base.make"] == 1
    assert "method" not in a.Derived.__dict__
    assert isinstance(a.Base.__dict__["make"], classmethod)
    assert len(rec) == 2


def test_targets_must_resolve_and_be_public(fake_package):
    with pytest.raises(tracing.TableError, match="private"):
        tracing.resolve_target("e2efake.a._hidden")
    with pytest.raises(tracing.TableError, match="does not resolve"):
        tracing.resolve_target("e2efake.a.missing")
    with pytest.raises(tracing.TableError, match="does not resolve"):
        tracing.resolve_target("no_such_package_e2e.mod.f")


def test_table_guard_flags_silent_zero_and_bypassed_calls():
    rows = [
        _row("m.must", runs_on=frozenset({"w"})),
        _row("m.never", bypassed_on=frozenset({"w"})),
        _row("m.either"),
    ]
    assert tracing.check_table(rows, {"calls:m.must": 3, "calls:m.never": 0}, "w") == []
    problems = tracing.check_table(rows, {"calls:m.must": 0, "calls:m.never": 2}, "w")
    assert len(problems) == 2
    assert "must run" in problems[0] and "bypassed" in problems[1]
    assert tracing.check_table(rows, {"calls:m.never": 2}, "other") == []


def test_every_table_target_resolves_to_a_public_callable():
    for row in span_table.SPAN_TABLE:
        owner, attr = tracing.resolve_target(row.target)
        assert callable(getattr(owner, attr)), row.target
        assert row.runs_on <= span_table.ALL and row.bypassed_on <= span_table.ALL
        assert not row.runs_on & row.bypassed_on, row.target


# --------------------------------------------------------------------- #
# names, counts, BENCHMARK.json                                         #
# --------------------------------------------------------------------- #
def test_names_units_and_counts_fit_the_contract():
    assert schema.validate_names() == []


def test_benchmark_json_lists_exactly_the_emitted_names():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                          "per_layer"}
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]] == list(
        schema.E2E_METRICS
    )
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        (m.name, m.unit, m.better) for m in span_table.LAYER_METRICS
    ]
    assert bench["paths"] == ["benchmarks/e2e"]
    assert bench["run_seconds"] == bench_run.RUN_SECONDS
    assert bench["command"][-1] == "benchmarks/e2e/run.py"


def test_seed_reaches_every_seeded_input():
    for workload in workloads.WORKLOADS.values():
        one, two = workload.make_spec(1, False), workload.make_spec(2, False)
        assert workload.make_spec(1, False) == one
        base_one, base_two = one.get("base", one), two.get("base", two)
        for section in ("model", "data", "neuroflux"):
            assert base_one[section]["seed"] != base_two[section]["seed"]
    fleet = workloads.WORKLOADS[span_table.FLEET]
    assert fleet.make_spec(1, False)["fleet"]["events"] != fleet.make_spec(2, False)["fleet"][
        "events"]


# --------------------------------------------------------------------- #
# the real thing, shrunk                                                #
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def quick_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e-quick")
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--quick", "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    with open(out / "results.json") as fh:
        document = json.load(fh)
    return proc, document, out


def test_quick_run_passes_its_checks_and_validates(quick_run):
    proc, document, out = quick_run
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert schema.validate_results(document) == []
    assert document["comparable"] is False
    assert document["provenance"]["thread_env"].keys() >= {"OPENBLAS_NUM_THREADS"}
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] == 9  # 4 plain + 4 traced + the memory pass
    for name, result in document["workloads"].items():
        assert result["fail_ratio"] == 0
        assert all(v["median"] > 0 for v in result["end_to_end"].values())
        trace = json.load(open(out / f"trace-{name}.json"))
        assert len(trace["traceEvents"]) == result["spans"]["n"] + 1


def test_bypassed_layers_read_zero_and_exercised_ones_do_not(quick_run):
    layers = {n: r["per_layer"] for n, r in quick_run[1]["workloads"].items()}
    seq, mp = layers[span_table.SEQ], layers[span_table.MP]
    fleet, sweep = layers[span_table.FLEET], layers[span_table.SWEEP]
    assert seq["core.cache_write_bytes"] > 0 and seq["core.cache_read_bytes"] > 0
    assert mp["core.cache_writes"] == 0 and mp["core.cache_read_s"] == 0
    assert mp["backend.mp_processes"] == 2 and mp["backend.mp_children_cpu_s"] > 0
    assert seq["backend.mp_processes"] == 0 and seq["backend.mp_wall_s"] == 0
    assert sweep["nn.conv_calls"] == 0 and sweep["backend.matmul_flops"] == 0
    assert sweep["evalsim.sim_steps"] > 0 and sweep["sweep.cells"] == 6
    assert seq["evalsim.sim_steps"] == 0 and seq["sweep.cells"] == 0
    assert fleet["fleet.requests"] == fleet["serving.requests_generated"] > 0
    assert fleet["fleet.router_picks"] >= fleet["fleet.requests"]
    assert seq["memory.host_block_peak_mb"] > 0 and seq["memory.sim_peak_mb"] > 0
    assert mp["memory.host_block_peak_mb"] == 0
    assert all(layer["obs.trace_overhead_ratio"] > 0 for layer in layers.values())


def test_top_level_spans_cover_the_traced_phase(quick_run):
    for name, result in quick_run[1]["workloads"].items():
        if name != span_table.MP:  # its second stage runs in a forked child
            assert result["spans"]["coverage"] >= 0.9, name


def test_another_seed_gives_another_digest(quick_run, tmp_path):
    rep = bench_run.run_child(span_table.FLEET, 1, "plain", 0, True, str(tmp_path))
    assert bench_run.rep_ok(rep), rep["checks"]
    assert rep["digest"] != quick_run[1]["workloads"][span_table.FLEET]["digest"]


def test_refuses_to_run_without_the_program(tmp_path):
    bare = tmp_path / "benchmarks" / "e2e"
    bare.mkdir(parents=True)
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            (bare / name).write_text(open(os.path.join(HERE, name)).read())
    proc = subprocess.run(
        [sys.executable, str(bare / "run.py"), "--workload", span_table.SWEEP, "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode != 0 and proc.stdout.strip() == ""
