"""Every figure and table of the paper's evaluation, from a committed sweep.

Each case runs one ``benchmarks/sweeps/*.json`` through the sweep engine
into a scratch store, rebuilds the figure's rows from the store with
``repro.sweep`` query paths (what ``repro sweep results --select``
prints), and asserts the paper's *shape* claims on them (who wins, rough
factors, crossovers -- absolute numbers come from the simulated platform
models, not the authors' testbed).

The analytic and closed-form figures (``evalsim`` cells) must also match
``tests/data/figures_golden.json`` -- every row, recorded from the
figure scripts these sweeps replaced -- to 1e-6, infeasible cells
``null`` on both sides.  The trained figures run real scaled-down
training through the ``baseline`` and ``sequential`` backends; their
digits depend on the data section's sizes, so they are held to the shape
claims here and to ``backend == direct trainer call`` bit for bit in
``tests/test_api_baseline.py``.
"""

import json
from itertools import accumulate
from pathlib import Path

import pytest

from repro.sweep import ResultsStore, SweepSpec, run_sweep, select_rows, store_rows

REPO = Path(__file__).resolve().parent.parent
SWEEPS = REPO / "benchmarks/sweeps"
GOLDEN = json.loads((REPO / "tests/data/figures_golden.json").read_text())
MB = 2**20

EV = "report.evalsim."
BD = EV + "breakdown."


@pytest.fixture(scope="module")
def table(tmp_path_factory):
    """``table(sweep, *columns)``: run the sweep once, select the columns."""
    stores: dict[str, list[dict]] = {}

    def select(sweep: str, *columns: str) -> list[list]:
        if sweep not in stores:
            spec = SweepSpec.from_json_file(str(SWEEPS / f"{sweep}.json"))
            path = str(tmp_path_factory.mktemp("sweeps") / f"{sweep}.sweep")
            summary = run_sweep(spec, path, workers=4 if spec.n_runs > 12 else 2)
            assert summary.failed == 0 and summary.executed == spec.n_runs
            stores[sweep] = store_rows(ResultsStore.open(path))
        flat = select_rows(stores[sweep], select=columns)
        return [[row[c] for c in columns] for row in flat]

    return select


def golden_rows(figure: str) -> list[list]:
    return GOLDEN[figure]["rows"]


def assert_rows_match(got: list[list], want: list[list]) -> None:
    assert len(got) == len(want)
    for got_row, want_row in zip(got, want):
        assert len(got_row) == len(want_row)
        for g, w in zip(got_row, want_row):
            if w is None or isinstance(w, (str, bool)):
                assert g == w, (got_row, want_row)
            else:
                assert g is not None and abs(g - w) < 1e-6, (got_row, want_row)


def column(rows: list[list], index: int) -> list:
    return [row[index] for row in rows]


# --------------------------------------------------------------------- #
# analytic figures: estimator / FLOP walks of the evalsim breakdown      #
# --------------------------------------------------------------------- #
def test_fig01_memory_breakdown(table):
    cells = table(
        "fig01_memory_breakdown", "spec.model.name", BD + "batch",
        BD + "bp.activations", BD + "bp.parameters", BD + "bp.optimizer",
        BD + "bp.total", BD + "inference", EV + "bp.batch_size",
        'report.metrics.evalsim_train_hours{method="bp"}.value',
    )
    by_key = {(c[0], c[1]): c for c in cells}
    rows = []
    for model, batch, act, params, opt, total, _, bp_batch, hours in cells:
        if batch == 1:  # the inference reference, not a plotted batch
            continue
        assert bp_batch == batch  # the limit caps BP, not only NeuroFlux
        rows.append([
            model, batch, act / MB, params / MB, opt / MB,
            total / by_key[(model, 1)][6], hours / by_key[(model, 256)][8],
        ])
    assert_rows_match(rows, golden_rows("fig01"))

    for _, batch, act, model_mb, _, mult, rel in rows:
        if batch == 256:
            # Shape: at batch 256, activations dwarf model + optimizer
            # memory, and training memory is a large multiple of
            # inference memory.
            assert act > 4 * model_mb
            assert mult > 5.0
            assert rel == pytest.approx(1.0)
        if batch == 4:
            # Shape: batch 4 is several times slower than batch 256 per
            # epoch (paper: 5x for ResNet-18, 9x for VGG-19).
            assert 3.0 < rel < 25.0


def test_fig04_aan_memory_ordering(table):
    cells = table(
        "fig04_aan_memory", BD + "batch", BD + "inference", BD + "aan_ll",
        BD + "bp.total", BD + "classic_ll",
    )
    rows = [[batch, *(b / MB for b in memory)] for batch, *memory in cells]
    assert_rows_match(rows, golden_rows("fig04"))

    for batch, inf, aan, bp, classic in rows:
        # The paper's ordering at every batch size.
        assert inf < aan < bp < classic, f"ordering broken at batch {batch}"
    # Shape: AAN-LL's slope is far below classic LL's (the whole point of
    # adaptive auxiliary networks).
    aan_col, classic_col = column(rows, 2), column(rows, 4)
    assert classic_col[-1] - classic_col[0] > 2.5 * (aan_col[-1] - aan_col[0])


def test_fig05_fig06_layer_memory(table):
    ((budget_mb, batch, layers),) = table(
        "fig05_06_layer_memory", "spec.budgets.memory_mb", BD + "batch", BD + "layers"
    )
    used = [layer["train_bytes"] for layer in layers]
    peak = max(used)
    fig05 = [[i + 1, u / MB, (peak - u) / MB] for i, u in enumerate(used)]
    assert_rows_match(fig05, golden_rows("fig05"))
    # Figure 6's budget is Figure 5's peak: the sweep file states it.
    assert batch == 30 and budget_mb * MB == peak
    fig06 = [[layer["layer"], min(layer["max_batch"], 4096)] for layer in layers]
    assert_rows_match(fig06, golden_rows("fig06"))

    used_mb, unused_mb = column(fig05, 1), column(fig05, 2)
    # Shape: an initial layer is the memory bottleneck...
    assert used_mb.index(max(used_mb)) <= 2
    # ...and later layers leave most of the peak budget unused.
    assert used_mb[-1] < 0.5 * max(used_mb)
    assert min(unused_mb) == 0.0  # the bottleneck layer uses the whole peak
    batches = column(fig06, 1)
    # Shape: the bottleneck layer supports ~the reference batch; later
    # layers support far larger batches (paper: up to the thousands).
    assert min(batches) <= 60
    assert max(batches) > 8 * min(batches)
    assert batches.index(min(batches)) <= 2


def test_fig08_linear_memory_models(table):
    ((sample_batches, layers),) = table(
        "fig08_linear_models", BD + "sample_batches", BD + "layers"
    )
    assert sample_batches == [10, 20, 30, 40, 50, 60, 70, 80, 90]
    rows = [
        [
            layer["layer"], *(b / MB for b in layer["measured_bytes"]),
            layer["slope"] / MB, layer["r_squared"],
        ]
        for layer in layers
    ]
    assert_rows_match(rows, golden_rows("fig08"))

    # Shape: every layer's memory-vs-batch curve is (near-)perfectly linear,
    # which is what justifies the Profiler's linear regression.
    assert min(column(rows, -1)) > 0.999
    # Shape: early layers have the steepest slopes (largest activations).
    slopes = column(rows, -2)
    assert max(slopes[:3]) == max(slopes)


def test_fig13_activation_sizes_and_aux_flops(table):
    cells = table("fig13_activation_flops", "spec.model.name", BD + "layers")
    rows, per_head = [], {}
    for model, layers in cells:
        flops = [layer["aux_forward_flops"] for layer in layers]
        assert sum(flops) == GOLDEN["fig13_total_aux_flops"][model]
        per_head[model] = sum(flops) / len(layers)
        for layer, cumulative in zip(layers, accumulate(flops)):
            rows.append([
                model, layer["layer"], layer["activation_elements"],
                cumulative / sum(flops),
            ])
    assert_rows_match(rows, golden_rows("fig13"))

    vgg_act = [r[2] for r in rows if r[0] == "vgg19"]
    res_act = [r[2] for r in rows if r[0] == "resnet18"]
    # Shape: activations shrink with depth for both models...
    assert vgg_act[-1] < vgg_act[0]
    assert res_act[-1] < res_act[0]
    # ...and VGG-19 ends relatively smaller (frequent downsampling).
    assert vgg_act[-1] / vgg_act[0] < res_act[-1] / res_act[0]
    # Shape: ResNet-18's aux heads are individually costlier than VGG-19's
    # (its activations stay large longer -- the paper's explanation for why
    # NeuroFlux gains more on VGG-19).  Our ResNet units are residual
    # blocks (9 heads) rather than the paper's 17 per-conv indices, so the
    # comparison is per head.
    assert per_head["resnet18"] > per_head["vgg19"]


# --------------------------------------------------------------------- #
# closed-form figures: the three simulated arms of an evalsim cell       #
# --------------------------------------------------------------------- #
def test_fig11_time_vs_budget(table):
    rows = table(
        "fig11_time_vs_budget", "spec.model.name", "spec.data.dataset",
        "spec.budgets.memory_mb", EV + "bp_hours", EV + "ll_hours", EV + "nf_hours",
        "report.metrics.evalsim_speedup_vs_bp.value",
        "report.metrics.evalsim_speedup_vs_ll.value",
    )
    assert_rows_match(rows, golden_rows("fig11"))

    for _, _, budget, bp, ll, nf, speedup_bp, speedup_ll in rows:
        # Shape: NeuroFlux trains at every budget, including 100 MB.
        assert nf is not None
        # Shape: BP and classic LL are infeasible at the tightest budget.
        if budget <= 100:
            assert bp is None, f"BP should OOM at {budget} MB"
            assert ll is None, f"classic LL should OOM at {budget} MB"
        # Shape: wherever BP/LL run, NeuroFlux is faster (paper: 2.3x-6.1x
        # and 3.3x-10.3x); we accept >1x as the invariant.
        assert speedup_bp is None or speedup_bp > 1.0
        assert speedup_ll is None or speedup_ll > 1.5
    for model in ("vgg16", "vgg19", "resnet18"):
        mine = [r for r in rows if r[0] == model]
        # Shape: classic LL's feasibility floor is above BP's.
        assert column(mine, 4).count(None) >= column(mine, 3).count(None)
    # Observation 2: NeuroFlux at 100 MB beats BP at 500 MB.
    by_key = {(r[0], r[1], r[2]): r for r in rows}
    for dataset in ("cifar10", "cifar100", "tiny-imagenet"):
        nf_100 = by_key[("vgg16", dataset, 100)][5]
        bp_500 = by_key[("vgg16", dataset, 500)][3]
        assert nf_100 < bp_500, f"Observation 2 broken on {dataset}"


def test_ablation_rho(table):
    rows = table(
        "ablation_rho", "spec.neuroflux.rho", EV + "n_blocks", EV + "nf_hours",
        EV + "min_batch", EV + "max_batch",
    )
    assert_rows_match(rows, golden_rows("ablation-rho"))

    rhos, n_blocks, hours = column(rows, 0), column(rows, 1), column(rows, 2)
    # Shape: larger rho merges more layers -> fewer blocks (monotone).
    for a, b in zip(n_blocks, n_blocks[1:]):
        assert b <= a
    # The paper's default sits in the sweep and its time is within 25% of
    # the sweep's best (40% was chosen as the best trade-off).
    assert hours[rhos.index(0.4)] <= min(hours) * 1.25


def test_ablation_mechanisms(table):
    cells = table(
        "ablation_mechanisms", "spec.neuroflux.use_cache",
        "spec.neuroflux.adaptive_batch", EV + "nf_hours",
        "report.ledger.compute", "report.ledger.overhead",
    )
    variant = {
        (True, True): "full NeuroFlux",
        (False, True): "no activation cache",
        (True, False): "fixed global batch",
        (False, False): "neither",
    }
    by_variant = {
        variant[(cache, adaptive)]: [total, compute / 3600, overhead / 3600]
        for cache, adaptive, total, compute, overhead in cells
    }
    rows = [[name, *by_variant[name]] for name in column(golden_rows("ablation-mechanisms"), 0)]
    assert_rows_match(rows, golden_rows("ablation-mechanisms"))

    hours = {name: values[0] for name, values in by_variant.items()}
    full = hours["full NeuroFlux"]
    # Shape: each mechanism contributes -- removing either slows training.
    assert hours["no activation cache"] > full
    assert hours["fixed global batch"] > full
    # Shape: removing both is the slowest variant.
    assert hours["neither"] >= max(
        hours["no activation cache"], hours["fixed global batch"]
    )


# --------------------------------------------------------------------- #
# deployment tables: a trained exit selection x the full-scale breakdown #
# --------------------------------------------------------------------- #
TABLE_MODELS = ("vgg16", "vgg19", "resnet18")
FULL_SCALE = (
    "table2_table3_full_scale", "spec.model.name", EV + "platform",
    BD + "full_params", BD + "full_images_per_s", BD + "layers",
)


def test_full_scale_tables_match_golden_at_every_exit(table):
    cells = table(*FULL_SCALE)
    table2 = {
        (model, layer["layer"]): [model, layer["layer"], full_params, layer["exit_params"]]
        for model, _, full_params, _, layers in cells
        for layer in layers
    }
    assert_rows_match(
        [table2[(r[0], r[1])] for r in golden_rows("table2")], golden_rows("table2")
    )
    table3 = {
        (platform, model, layer["layer"]): [
            platform, model, layer["layer"], full_rate, layer["exit_images_per_s"],
        ]
        for model, platform, _, full_rate, layers in cells
        for layer in layers
    }
    assert len(table3) == len(golden_rows("table3"))
    rows = [table3[tuple(r[:3])] for r in golden_rows("table3")]
    assert_rows_match(rows, [r[:5] for r in golden_rows("table3")])
    # The speedup is the ratio of two throughputs the report rounds to 1e-6.
    for (*_, full_rate, exit_rate), want in zip(rows, golden_rows("table3")):
        assert exit_rate / full_rate == pytest.approx(want[5], rel=1e-6)


@pytest.fixture(scope="module")
def selected_exits(table):
    """Exit layer (1-based) a real scaled-down NeuroFlux run selects."""
    cells = table("fig10_exit_selection", "spec.model.name", "report.exit_layer")
    return {model: exit_layer + 1 for model, exit_layer in cells}


def test_table2_compression(table, selected_exits):
    seen = set()
    for model, _, full_params, _, layers in table(*FULL_SCALE):
        if model in seen:  # one row per model; the platform axis is Table 3's
            continue
        seen.add(model)
        exit_m = layers[selected_exits[model] - 1]["exit_params"] / 1e6
        full_m = full_params / 1e6
        # Full-scale model sizes match the paper's Table 2.
        paper_m, slack = {"vgg16": (14.7, 0.2), "vgg19": (20.0, 0.2), "resnet18": (11.2, 0.4)}[model]
        assert abs(full_m - paper_m) < slack
        # Shape: strong compression on every model (paper: 10.9x-29.4x).
        assert full_m / exit_m > 5.0, f"{model} compression only {full_m / exit_m:.1f}x"
        assert exit_m < 3.0, f"{model} exit model too large: {exit_m:.2f}M"
    assert seen == set(TABLE_MODELS)


def test_table3_throughput(table, selected_exits):
    by_platform = {}
    for model, platform, _, full_tp, layers in table(*FULL_SCALE):
        exit_tp = layers[selected_exits[model] - 1]["exit_images_per_s"]
        # Shape: the early-exit model beats the full model on every platform
        # and model (paper: 1.61x-3.95x).
        assert exit_tp / full_tp > 1.2, f"{model} on {platform}: gain {exit_tp / full_tp:.2f}x"
        assert exit_tp > full_tp
        if model == "vgg16":
            by_platform[platform] = full_tp
    # Shape: faster platforms deliver higher absolute throughput.
    assert (
        by_platform["Raspberry Pi 4B"]
        < by_platform["Jetson Nano"]
        < by_platform["Jetson Xavier NX"]
        < by_platform["Jetson AGX Orin"]
    )


# --------------------------------------------------------------------- #
# trained figures: real scaled-down runs, baseline x sequential backends #
# --------------------------------------------------------------------- #
def test_fig03_paradigm_quadrant(table):
    cells = table(
        "fig03_paradigm_quadrant", "report.method", "report.peak_memory_bytes",
        "report.final_accuracy",
    )
    rows = {method: (peak / MB, accuracy) for method, peak, accuracy in cells}
    bp_mem, bp_acc = rows["backprop"]
    ll_mem, ll_acc = rows["classic-ll"]
    fa_mem, fa_acc = rows["feedback-alignment"]
    sp_mem, sp_acc = rows["signal-propagation"]
    nf_mem, nf_acc = rows["neuroflux"]

    # Shape: BP and LL reach high accuracy; both beat chance comfortably.
    assert bp_acc > 0.45 and ll_acc > 0.45
    # Shape: SP is the most memory-frugal paradigm but trails on accuracy.
    assert sp_mem < bp_mem and sp_mem < ll_mem
    assert sp_acc < max(bp_acc, ll_acc)
    # Shape: FA matches BP's memory (identical training loop).
    assert abs(fa_mem - bp_mem) / bp_mem < 0.05
    # Shape: NeuroFlux lands in the ideal quadrant -- memory far below
    # BP/LL at comparable accuracy.
    assert nf_mem < 0.7 * bp_mem
    assert nf_acc > 0.45


def test_fig10_layerwise_accuracy(table):
    cells = table(
        "fig10_exit_selection", "spec.model.name", "report.layer_val_accuracies",
        "report.exit_layer",
    )
    ((accs, exit_idx),) = [c[1:] for c in cells if c[0] == "vgg16"]

    best = max(accs)
    # Shape: the best exit beats chance comfortably (4 classes -> 0.25).
    assert best > 0.45
    # Shape: the selected exit is within tolerance of the best accuracy...
    assert accs[exit_idx] >= best - 0.021
    # ...and sits at or before the accuracy-saturation point, i.e. no
    # strictly-better exit exists earlier (the 'overthinking' selection).
    for i in range(exit_idx):
        assert accs[i] < best - 0.02
    # Shape: depth helps initially -- the best exit is not layer 1.
    assert accs.index(best) > 0


def test_fig12_accuracy_vs_time(table):
    cells = table(
        "fig12_accuracy_vs_time", "report.method", "report.wall_clock_s",
        "report.history",
    )
    horizon = max(wall for _, wall, _ in cells)
    grid = [horizon * (i + 1) / 8 for i in range(8)]

    def curve(history):
        """Best evaluated accuracy within each time point of the grid."""
        return [
            max([p["accuracy"] for p in history if p["sim_time_s"] <= t], default=0.0)
            for t in grid
        ]

    curves = {method: curve(history) for method, _, history in cells}
    bp, ll, nf = curves["backprop"], curves["classic-ll"], curves["neuroflux"]

    # Shape: all methods end up well above chance (0.25 for 4 classes).
    assert bp[-1] > 0.4 and ll[-1] > 0.4 and nf[-1] > 0.4
    # Observation 3: for a given time budget, NeuroFlux's accuracy is at
    # least as good as the baselines' through the early/mid training
    # window (it reaches peak accuracy first).
    early_half = range(len(nf) // 2)
    assert all(nf[i] >= bp[i] for i in early_half)
    assert all(nf[i] >= ll[i] for i in early_half)
    # NeuroFlux finishes (reaches its final accuracy) no later than BP.
    assert sum(a == nf[-1] for a in nf) >= sum(a == bp[-1] for a in bp)


def test_system_overheads(table):
    cells = table(
        "overheads", "report.blocks", "report.profiling_time_s",
        "report.wall_clock_s", "report.cache_bytes_written", "report.dataset_bytes",
    )
    assert max(len(blocks) for blocks, *_ in cells) > 1
    for blocks, profiling_s, wall_s, cache_bytes, dataset_bytes in cells:
        # Shape: profiling + partitioning cost < 1.5% of training time.
        assert 100 * profiling_s / wall_s < 1.5
        # Shape: the cache needs storage proportional to the dataset (paper:
        # 1.5x-5.3x); single-block runs write nothing.
        if len(blocks) > 1:
            assert 0.05 < cache_bytes / dataset_bytes < 10.0


def test_aux_rule_ablation(table):
    cells = table(
        "ablation_aux", "spec.neuroflux.aux_rule", "report.final_accuracy",
        "report.peak_memory_bytes",
    )
    rows = {rule: (accuracy, peak / MB) for rule, accuracy, peak in cells}
    aan_acc, aan_mem = rows["aan"]
    classic_acc, classic_mem = rows["classic"]
    small_acc, small_mem = rows["uniform-small"]

    # Shape: the three rules form the Section-3 trade-off ladder --
    # classic costs the most memory, uniformly-small the least, adaptive
    # sits between on memory while beating uniformly-small on accuracy.
    assert classic_mem > aan_mem > small_mem
    assert aan_acc > small_acc
    # At this reduced scale the classic heads retain an accuracy edge
    # (full-scale parity is the paper's claim), but adaptive must stay
    # within striking distance.
    assert aan_acc > classic_acc - 0.25
