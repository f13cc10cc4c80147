"""Wall-clock kernel benchmarks: the perf trajectory of the numpy substrate.

Every trainer and the serving cascade funnel through the same handful of
kernels (im2col/col2im lowering, conv GEMMs, pooling windows, the loss).
This module times them -- micro benchmarks per kernel, macro benchmarks per
full training step -- in two configurations of the one conv path:

* ``seed``: fresh allocations every step and full input gradients, as the
  original trainers ran it; and
* ``fast``: what the trainers run today -- a workspace attached and input
  gradients skipped where the trainers discard them (``need_input_grad``
  as :mod:`repro.training` and :mod:`repro.core.worker` pass it).

One micro row is not a seed/fast pair.  ``gemm_im2col`` times the
conv-core GEMM as repro runs it, on one BLAS thread (``seed``), against
a plain ``np.matmul`` on the BLAS thread count in force (``fast``, the
row's ``threads``): what an OpenBLAS pool would buy on this host, which
the one-thread rule gives up for weights that do not depend on the core
count.

The ``backend`` suite covers :mod:`repro.backend`: real forked
multiprocess block-parallel training vs the same executor single-process
(``mp_block_parallel``, with cores and the >=1.5x claim recorded
honestly).

``run_suite`` returns a JSON-serializable report; ``python -m repro.cli
bench kernels`` (:mod:`repro.bench`) writes it to ``BENCH_kernels.json`` so
every future PR has a committed perf baseline to regress against.
``--quick`` shrinks shapes and repetitions to a smoke test (CI runs it on
every push so the harness itself cannot rot).
"""

from __future__ import annotations

import sys

import numpy as np

from repro.backend.blas import usable_cores
from repro.bench import MB, best_of, env_block, reference_data, reference_system
from repro.errors import ConfigError

#: Accepted suite selectors for run_suite / the CLI.
SUITES = ("micro", "macro", "backend", "all")

#: Floor for the ``--gate-mp`` check on hosts with >= 2 usable cores:
#: more processes must not be slower than one.  The measured ratio on a
#: 2-core host is 1.04-1.36x run to run; the margin below 1.0 only absorbs
#: timer jitter.  The regression it exists for (every stage spinning a
#: full BLAS pool) measures 0.34x.
GATE_MP_FLOOR = 0.95

_DEFAULT_MODEL = "vgg11"


def _entry(seed_ms: float, fast_ms: float, **extra) -> dict:
    return {
        "seed_ms": round(seed_ms, 4),
        "fast_ms": round(fast_ms, 4),
        "speedup": round(seed_ms / fast_ms, 3) if fast_ms > 0 else float("inf"),
        **extra,
    }


def _ms(fn, reps: int) -> float:
    """Best-of-``reps`` wall-clock milliseconds for ``fn`` timed alone."""
    return 1e3 * best_of({"fn": fn}, reps, warmup=2)["fn"]


def _paired_entry(seed_fn, fast_fn, reps: int, **extra) -> dict:
    """Row for two paths timed interleaved -- the rows a gate or a parity
    claim reads, where noise must land on both sides."""
    best = best_of({"seed": seed_fn, "fast": fast_fn}, reps, warmup=2)
    return _entry(1e3 * best["seed"], 1e3 * best["fast"], **extra)


# -- micro: individual kernels ---------------------------------------------


def bench_im2col(batch: int, reps: int, seed: int = 0) -> dict:
    """NCHW transpose-gather vs NHWC contiguous-run gather."""
    from repro.nn.functional import im2col, im2col_nhwc, pad2d_nhwc
    from repro.perf.workspace import Workspace

    rng = np.random.default_rng(seed)
    n, c, h, w, k, s, p = batch, 32, 16, 16, 3, 1, 1
    x = rng.standard_normal((n, c, h, w)).astype(np.float32)
    ws = Workspace()

    def fast():
        xp, fresh = ws.get("xp", (n, h + 2 * p, w + 2 * p, c))
        pad2d_nhwc(x, p, out=xp, fresh=fresh)
        oh = h + 2 * p - k + 1
        cols, _ = ws.get("cols", (n, oh, oh, k, k, c))
        im2col_nhwc(xp, k, s, out=cols)

    return _entry(
        _ms(lambda: im2col(x, k, s, p), reps),
        _ms(fast, reps),
        shape=[n, c, h, w],
        kernel=k,
    )


def bench_col2im(batch: int, reps: int, seed: int = 0) -> dict:
    """Seed NCHW scatter loop vs NHWC bulk-slice scatter (stride 1, k=3)."""
    from repro.nn.functional import col2im, col2im_nhwc

    rng = np.random.default_rng(seed)
    n, c, h, w, k, s, p = batch, 32, 16, 16, 3, 1, 1
    oh = ow = h
    dcols = rng.standard_normal((n * oh * ow, c * k * k)).astype(np.float32)
    dcols_nhwc = np.ascontiguousarray(
        dcols.reshape(n, oh, ow, c, k, k).transpose(0, 1, 2, 4, 5, 3)
    )
    out = np.empty((n, h + 2 * p, w + 2 * p, c), np.float32)

    return _entry(
        _ms(lambda: col2im(dcols, (n, c, h, w), k, s, p, (oh, ow)), reps),
        _ms(lambda: col2im_nhwc(dcols_nhwc, k, s, out=out), reps),
        shape=[n, c, h, w],
        kernel=k,
    )


def bench_gemm_im2col(batch: int, reps: int, seed: int = 0) -> dict:
    """The conv-core GEMM (im2col rows x filter matrix) on one BLAS
    thread vs on the count in force.

    ``seed`` is :func:`repro.backend.registry.matmul`, the rule every
    repro GEMM runs under (one BLAS thread, :mod:`repro.backend.blas`);
    ``fast`` is a plain ``np.matmul`` on the count in force, reported as
    ``threads``.  Where BLAS cannot be controlled both sides run the
    same, ``threads`` is None and the ratio reads ~1.
    """
    from repro.backend.blas import threads_in_force
    from repro.backend.registry import matmul

    rng = np.random.default_rng(seed)
    n, oh, c, k, cout = batch, 16, 32, 3, 64
    # At least 4096 rows: big enough that one call dwarfs timer noise.
    m = max(4096, n * oh * oh)
    cols = rng.standard_normal((m, c * k * k)).astype(np.float32)
    wmat = rng.standard_normal((c * k * k, cout)).astype(np.float32)
    out = np.empty((m, cout), np.float32)
    return _paired_entry(
        lambda: matmul(cols, wmat, out),
        lambda: np.matmul(cols, wmat, out),
        max(reps, 10),
        shape=[m, c * k * k, cout],
        threads=threads_in_force(),
    )


def bench_conv_step(batch: int, reps: int, seed: int = 0) -> dict:
    """One conv forward+backward: fresh allocations and the input gradient
    vs a workspace and no input gradient (a unit's first conv in training)."""
    from repro.nn import Conv2d

    rng = np.random.default_rng(seed)
    n, cin, hw, cout = batch, 32, 16, 64
    x = rng.standard_normal((n, cin, hw, hw)).astype(np.float32)
    seed_conv = Conv2d(cin, cout, 3, padding=1, rng=np.random.default_rng(seed + 1))
    fast_conv = Conv2d(
        cin, cout, 3, padding=1, rng=np.random.default_rng(seed + 1)
    ).attach_workspace()
    g = rng.standard_normal((n, cout, hw, hw)).astype(np.float32)

    def seed_step():
        seed_conv.forward(x)
        seed_conv.backward(g)

    def fast_step():
        fast_conv.forward(x)
        fast_conv.backward(g, need_input_grad=False)

    return _entry(
        _ms(seed_step, reps), _ms(fast_step, reps), shape=[n, cin, hw, hw]
    )


def bench_maxpool_step(batch: int, reps: int, seed: int = 0) -> dict:
    """2x2 max pool fwd+bwd: generic window path vs exact-tiling path."""
    from repro.nn import MaxPool2d
    from repro.nn.functional import scatter_windows, sliding_windows

    rng = np.random.default_rng(seed)
    n, c, hw = batch, 64, 16
    x = rng.standard_normal((n, c, hw, hw)).astype(np.float32)
    pool = MaxPool2d(2)
    oh = hw // 2
    g = rng.standard_normal((n, c, oh, oh)).astype(np.float32)

    def seed_step():
        # The pre-fast-path formulation: window copy + argmax + scatter loop.
        win = sliding_windows(x, 2, 2)
        flat = win.reshape(n, c, oh, oh, 4)
        idx = flat.argmax(axis=-1)
        np.take_along_axis(flat, idx[..., None], axis=-1)
        dflat = np.zeros((n, c, oh, oh, 4), dtype=g.dtype)
        np.put_along_axis(dflat, idx[..., None], g[..., None], axis=-1)
        scatter_windows(dflat.reshape(n, c, oh, oh, 2, 2), x.shape, 2, 2)

    def fast_step():
        pool.forward(x)
        pool.backward(g)

    return _entry(
        _ms(seed_step, reps), _ms(fast_step, reps), shape=[n, c, hw, hw]
    )


# -- macro: full training steps --------------------------------------------


def _make_batch(batch: int, input_hw: tuple[int, int], num_classes: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    x = (0.1 * rng.standard_normal((batch, 3, *input_hw))).astype(np.float32)
    y = rng.integers(0, num_classes, batch)
    return x, y


#: Width multiplier for the macro models -- the repo's standard scale for
#: pure-numpy benchmarking (the fleet suite and the test suite use the same
#: family of scaled-down zoo models).
MACRO_WIDTH = 0.125


def _build(model_name: str, input_hw: tuple[int, int], width: float, seed: int = 0):
    from repro.models.zoo import build_model

    return build_model(
        model_name,
        num_classes=10,
        input_hw=input_hw,
        width_multiplier=width,
        seed=seed,
    )


def bench_bp_step(
    model_name: str,
    batch: int,
    reps: int,
    quick: bool,
    width: float = MACRO_WIDTH,
    seed: int = 0,
) -> dict:
    """Full backprop training step (forward, loss, backward, SGD update)."""
    from repro.nn import CrossEntropyLoss, make_optimizer

    input_hw = (16, 16) if quick else (32, 32)
    x, y = _make_batch(batch, input_hw, 10, seed)
    results = {}
    for mode, fast in (("seed", False), ("fast", True)):
        model = _build(model_name, input_hw, width, seed)
        if fast:
            model.attach_workspace()
        loss_fn = CrossEntropyLoss()
        opt = make_optimizer("sgd-momentum", model.parameters(), lr=1e-4)
        model.train()
        need_input_grad = not fast  # seed behavior computed the input grad

        def step():
            logits = model.forward(x)
            loss_fn(logits, y)
            model.zero_grad()
            model.backward(loss_fn.backward(), need_input_grad=need_input_grad)
            opt.step()

        results[mode] = _ms(step, reps)
    return _entry(
        results["seed"], results["fast"], model=model_name, batch=batch,
        input_hw=list(input_hw), width_multiplier=width,
    )


def bench_ll_step(
    model_name: str,
    batch: int,
    reps: int,
    quick: bool,
    width: float = MACRO_WIDTH,
    seed: int = 0,
) -> dict:
    """Full local-learning step: every stage trains against its aux head."""
    from repro.core.auxiliary import build_aux_heads
    from repro.nn import CrossEntropyLoss, make_optimizer
    from repro.nn.module import run_backward

    input_hw = (16, 16) if quick else (32, 32)
    x, y = _make_batch(batch, input_hw, 10, seed)
    results = {}
    for mode, fast in (("seed", False), ("fast", True)):
        model = _build(model_name, input_hw, width, seed)
        aux_heads = build_aux_heads(model, rule="classic", classic_filters=32, seed=seed)
        if fast:
            for module in (model, *aux_heads):
                module.attach_workspace()
        loss_fn = CrossEntropyLoss()
        optimizers = [
            make_optimizer(
                "sgd-momentum",
                spec.module.parameters() + aux.parameters(),
                lr=1e-4,
            )
            for spec, aux in zip(model.local_layers(), aux_heads)
        ]
        model.train()
        for aux in aux_heads:
            aux.train()
        need_input_grad = not fast

        def step():
            feats = x
            for spec, aux, opt in zip(model.local_layers(), aux_heads, optimizers):
                out = spec.module.forward(feats)
                z = aux.forward(out)
                loss_fn(z, y)
                dout = aux.backward(loss_fn.backward())
                run_backward(spec.module, dout, need_input_grad=need_input_grad)
                opt.step()
                opt.zero_grad()
                feats = out

        results[mode] = _ms(step, reps)
    return _entry(
        results["seed"], results["fast"], model=model_name, batch=batch,
        input_hw=list(input_hw), width_multiplier=width,
    )


# -- backend: real parallelism --------------------------------------------


def _tiny_system(seed: int):
    """A >=4-block reference system on the tiny (scale 0.002) dataset.

    The 1 MiB budget with the default 256 batch limit partitions the
    width-0.125 vgg11 into 6 blocks -- enough stages for the multiprocess
    executor to overlap meaningfully on a multi-core host.
    """
    return reference_system(
        reference_data(seed, scale=0.002), MACRO_WIDTH, MB, seed, batch_limit=256
    )


def bench_mp_block_parallel(seed: int = 0) -> dict:
    """Single-process vs multiprocess block-parallel training wall-clock.

    Both sides run the *same* forked-executor code path (so the comparison
    isolates real core overlap, not serialization differences); each rep
    rebuilds the system because training mutates the weights.  The paper's
    parallel-efficiency claim (>= 1.5x) only applies on hosts with >= 4
    cores -- ``claim_met`` is ``None`` below that, never fabricated.
    """
    from repro.backend.multiproc import fork_available, run_block_parallel

    cores = usable_cores()
    if not fork_available():
        return {"skipped": "fork start method unavailable", "cores": cores}
    # Quick mode runs the full measurement (~2.5 s): one epoch of this
    # job is ~70 ms, too short for a forked stage to amortize its
    # start-up, and --gate-mp needs a ratio that clears its own noise.
    # The two arms alternate so host drift lands on both.
    epochs, reps = 2, 4
    best: dict = {}
    for _ in range(reps):
        for processes in (1, None):  # None: a stage per core, capped at blocks
            system = _tiny_system(seed)
            report = run_block_parallel(system, epochs, processes=processes)
            ex = report.result.extras
            held = best.get(processes)
            if held is None or ex["wall_clock_s"] < held["wall_clock_s"]:
                best[processes] = ex
    extras = best[None]
    seed_ms, fast_ms = best[1]["wall_clock_s"] * 1e3, extras["wall_clock_s"] * 1e3
    row = _entry(
        seed_ms,
        fast_ms,
        cores=cores,
        processes=extras["processes"],
        blas_threads=extras["blas_threads"],
        stages=extras["stages"],
        claim_target=1.5,
    )
    # The >=1.5x acceptance claim is only measurable with real cores to
    # overlap on; on smaller hosts the row records the honest overhead.
    row["claim_met"] = (row["speedup"] >= 1.5) if cores >= 4 else None
    return row


# -- suite driver ----------------------------------------------------------


def run_suite(
    suite: str = "all",
    quick: bool = False,
    batch: int | None = None,
    reps: int | None = None,
    model: str = _DEFAULT_MODEL,
    seed: int = 0,
) -> dict:
    """Run the requested benchmark suite and return the report dict."""
    from repro.models.zoo import list_models

    if suite not in SUITES:
        raise ConfigError(f"unknown suite {suite!r}; pick from {SUITES}")
    if model not in list_models():
        raise ConfigError(f"unknown model {model!r}; available: {list_models()}")
    if batch is None:
        batch = 8 if quick else 32
    if batch < 1:
        raise ConfigError("batch must be >= 1")
    if reps is None:
        reps = 2 if quick else 10
    if reps < 1:
        raise ConfigError("reps must be >= 1")

    report: dict = {
        "schema": 1,
        "config": {
            "suite": suite,
            "quick": quick,
            "batch": batch,
            "reps": reps,
            "model": model,
            "seed": seed,
        },
        "env": {**env_block(), "cores": usable_cores()},
    }
    # Macro first: the micro benches leave allocator state (freed pools,
    # fragmented arenas) that measurably skews subsequent macro timings.
    if suite in ("macro", "all"):
        report["macro"] = {
            "bp_step": bench_bp_step(model, batch, reps, quick, seed=seed),
            "ll_step": bench_ll_step(model, batch, reps, quick, seed=seed),
        }
        if not quick:
            # A wider build tracks how the gains scale as the GEMMs (which
            # both paths share) take a larger share of the step.
            report["macro"]["bp_step_wide"] = bench_bp_step(
                model, batch, reps, quick, width=2 * MACRO_WIDTH, seed=seed
            )
    if suite in ("micro", "all"):
        micro_batch = max(1, batch // 4) if quick else batch
        report["micro"] = {
            "im2col": bench_im2col(micro_batch, reps, seed),
            "col2im": bench_col2im(micro_batch, reps, seed),
            "gemm_im2col": bench_gemm_im2col(micro_batch, reps, seed),
            "conv_step": bench_conv_step(micro_batch, reps, seed),
            "maxpool_step": bench_maxpool_step(micro_batch, reps, seed),
        }
    if suite in ("backend", "all"):
        report["backend"] = {
            "mp_block_parallel": bench_mp_block_parallel(seed),
        }
    return report


def format_report(report: dict) -> str:
    """Human-readable table of a run_suite report."""
    lines = []
    cfg = report["config"]
    lines.append(
        f"kernel benchmarks: model={cfg['model']} batch={cfg['batch']} "
        f"reps={cfg['reps']}{' (quick)' if cfg['quick'] else ''}"
    )
    header = f"{'benchmark':<22} {'seed ms':>10} {'fast ms':>10} {'speedup':>8}"
    for section in ("micro", "macro", "backend"):
        if section not in report:
            continue
        lines.append(f"\n[{section}]")
        lines.append(header)
        lines.append("-" * len(header))
        for name, row in report[section].items():
            if "seed_ms" not in row:
                lines.append(f"{name:<22} skipped: {row.get('skipped', '?')}")
                continue
            note = ""
            if "claim_met" in row:
                met = row["claim_met"]
                note = (
                    f"  cores={row['cores']} claim(>=1.5x)="
                    f"{'n/a' if met is None else met}"
                )
            lines.append(
                f"{name:<22} {row['seed_ms']:>10.3f} {row['fast_ms']:>10.3f} "
                f"{row['speedup']:>7.2f}x{note}"
            )
    return "\n".join(lines)


def add_arguments(parser) -> None:
    """The kernel suite's own flags (``repro.bench`` owns the shared ones)."""
    parser.add_argument("--suite", default="all", help="micro | macro | backend | all")
    parser.add_argument("--batch", type=int, default=None, help="macro batch size")
    parser.add_argument("--reps", type=int, default=None, help="timing repetitions")
    parser.add_argument("--model", default=_DEFAULT_MODEL, help="macro model name")
    parser.add_argument(
        "--gate-mp",
        action="store_true",
        help=(
            "fail (exit 1) if the mp_block_parallel speedup misses its "
            ">=1.5x claim on a >=4-core host, or is slower than one "
            f"process (< {GATE_MP_FLOOR}x) on any host with >=2 usable "
            "cores; the 1.5x claim prints skipped-with-reason on smaller "
            "hosts"
        ),
    )


def gate(report: dict, args) -> int:
    """Exit code of ``--gate-mp`` over a finished report."""
    if args.gate_mp:
        row = report.get("backend", {}).get("mp_block_parallel")
        if row is None:
            print("bench: --gate-mp needs the backend suite", file=sys.stderr)
            return 2
        if "skipped" in row:
            print(f"gate-mp skipped: {row['skipped']} (cores={row['cores']})")
            return 0
        if row["cores"] >= 2 and row["speedup"] < GATE_MP_FLOOR:
            # Whatever the core count, more processes must never be
            # slower than one (BLAS oversubscription did exactly that).
            print(
                f"bench: mp block-parallel slower than one process: "
                f"{row['speedup']}x < {GATE_MP_FLOOR}x floor on "
                f"{row['cores']} cores (processes={row['processes']})",
                file=sys.stderr,
            )
            return 1
        if row["claim_met"] is None:
            # <4 cores: the 1.5x claim is not measurable, and the recorded
            # row says so honestly; only the floor above was enforced.
            enforced = (
                f"floor {GATE_MP_FLOOR}x held" if row["cores"] >= 2 else "skipped"
            )
            print(
                f"gate-mp {enforced}: {row['cores']} core(s) < 4 (measured "
                f"{row['speedup']}x, 1.5x claim not enforceable)"
            )
            return 0
        if not row["claim_met"]:
            print(
                f"bench: mp block-parallel claim missed: {row['speedup']}x "
                f"< 1.5x on {row['cores']} cores "
                f"(processes={row['processes']})",
                file=sys.stderr,
            )
            return 1
        print(
            f"gate-mp ok: {row['speedup']}x >= 1.5x "
            f"(cores={row['cores']}, processes={row['processes']})"
        )
    return 0
