"""Array-backend seam: registry, threaded GEMM identity, dispatch rules."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.backend import (
    ComputeConfig,
    NumpyBackend,
    ThreadedBackend,
    active_backend,
    available_array_backends,
    get_array_backend,
    map_slices,
    matmul,
    set_active_backend,
    use_array_backend,
)
from repro.errors import ConfigError, SpecError


class TestRegistry:
    def test_numpy_is_the_default(self):
        backend = active_backend()
        assert backend.name == "numpy"
        assert not backend.parallel

    def test_builtin_backends_registered(self):
        names = available_array_backends()
        assert "numpy" in names
        assert "threaded" in names

    def test_unknown_backend_raises(self):
        with pytest.raises(ConfigError, match="unknown array backend"):
            get_array_backend("cuda")

    def test_set_active_returns_previous(self):
        previous = set_active_backend("threaded", threads=1)
        try:
            assert active_backend().name == "threaded"
            assert previous.name == "numpy"
        finally:
            restored = set_active_backend(previous)
            restored_from = restored
            assert restored_from.name == "threaded"
        assert active_backend().name == "numpy"

    def test_use_array_backend_none_is_noop(self):
        before = active_backend()
        with use_array_backend(None) as backend:
            assert backend is before
        assert active_backend() is before

    def test_use_array_backend_restores_on_exception(self):
        before = active_backend()
        with pytest.raises(RuntimeError):
            with use_array_backend("threaded", threads=1):
                assert active_backend().name == "threaded"
                raise RuntimeError("boom")
        assert active_backend() is before

    def test_use_array_backend_closes_owned_instances(self):
        with use_array_backend("threaded", threads=2) as backend:
            assert backend.parallel
        assert backend._pool is None  # closed on exit

    def test_use_array_backend_leaves_caller_instances_open(self):
        backend = ThreadedBackend(threads=2)
        try:
            with use_array_backend(backend):
                assert active_backend() is backend
            assert backend._pool is not None
        finally:
            backend.close()

    def test_module_level_matmul_dispatches_through_active(self):
        a = np.arange(6, dtype=np.float32).reshape(2, 3)
        b = np.arange(12, dtype=np.float32).reshape(3, 4)
        assert np.array_equal(matmul(a, b), a @ b)
        out = np.empty((2, 4), np.float32)
        assert matmul(a, b, out=out) is out

    def test_compute_config_defaults(self):
        cfg = ComputeConfig()
        assert cfg.array_backend == "numpy"
        assert cfg.threads is None
        assert not cfg.bf16_weights
        assert cfg.processes is None


class TestNumpyBackend:
    def test_matmul_matches_numpy(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((7, 5)).astype(np.float32)
        b = rng.standard_normal((5, 3)).astype(np.float32)
        assert np.array_equal(NumpyBackend().matmul(a, b), a @ b)

    def test_map_slices_serial_single_call(self):
        calls = []
        NumpyBackend().map_slices(lambda lo, hi: calls.append((lo, hi)), 10)
        assert calls == [(0, 10)]


class TestThreadedBackend:
    def test_invalid_threads_raises(self):
        with pytest.raises(ConfigError, match="threads must be >= 1"):
            ThreadedBackend(threads=0)

    def test_single_thread_has_no_pool(self):
        backend = ThreadedBackend(threads=1)
        assert not backend.parallel
        assert backend._pool is None

    @pytest.mark.parametrize("m", [4, 64, 600, 1200])
    def test_tiled_matmul_bit_identical(self, m):
        """Row-partitioned GEMMs reduce in the same order per output
        element, so the tiled result must equal np.matmul bit for bit."""
        rng = np.random.default_rng(1)
        a = rng.standard_normal((m, 48)).astype(np.float32)
        b = rng.standard_normal((48, 32)).astype(np.float32)
        backend = ThreadedBackend(threads=3, min_rows=16)
        try:
            assert np.array_equal(backend.matmul(a, b), np.matmul(a, b))
        finally:
            backend.close()

    def test_matmul_out_param_bit_identical(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((800, 27)).astype(np.float32)
        b = rng.standard_normal((27, 64)).astype(np.float32)
        out = np.empty((800, 64), np.float32)
        backend = ThreadedBackend(threads=2, min_rows=32)
        try:
            result = backend.matmul(a, b, out=out)
            assert result is out
            assert np.array_equal(out, np.matmul(a, b))
        finally:
            backend.close()

    def test_small_problem_short_circuits(self):
        """Below 2*min_rows the GEMM runs monolithically (same result)."""
        rng = np.random.default_rng(3)
        a = rng.standard_normal((10, 8)).astype(np.float32)
        b = rng.standard_normal((8, 6)).astype(np.float32)
        backend = ThreadedBackend(threads=4)
        try:
            assert np.array_equal(backend.matmul(a, b), a @ b)
        finally:
            backend.close()

    def test_non_2d_falls_back(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((2, 600, 8)).astype(np.float32)
        b = rng.standard_normal((8, 4)).astype(np.float32)
        backend = ThreadedBackend(threads=2, min_rows=16)
        try:
            assert np.array_equal(backend.matmul(a, b), a @ b)
        finally:
            backend.close()

    def test_tile_rows_bounds(self):
        backend = ThreadedBackend(threads=4, min_rows=8)
        try:
            tile = backend._tile_rows(1000, 64, 64, 4)
            assert 1 <= tile <= 1000
            # Never larger than the ceil-split across threads.
            assert tile <= -(-1000 // 4) + 1
        finally:
            backend.close()

    def test_map_slices_disjoint_exact_cover(self):
        """Every index visited exactly once across concurrent chunks."""
        n = 103
        counts = np.zeros(n, dtype=np.int64)
        lock = threading.Lock()

        def fn(lo, hi):
            with lock:
                counts[lo:hi] += 1

        backend = ThreadedBackend(threads=4)
        try:
            backend.map_slices(fn, n, min_chunk=8)
        finally:
            backend.close()
        assert np.all(counts == 1)

    def test_map_slices_small_n_serial(self):
        calls = []
        backend = ThreadedBackend(threads=4)
        try:
            backend.map_slices(lambda lo, hi: calls.append((lo, hi)), 3, min_chunk=8)
        finally:
            backend.close()
        assert calls == [(0, 3)]

    def test_map_slices_zero_is_noop(self):
        backend = ThreadedBackend(threads=2)
        try:
            backend.map_slices(lambda lo, hi: pytest.fail("called"), 0)
        finally:
            backend.close()

    def test_describe(self):
        backend = ThreadedBackend(threads=2)
        try:
            d = backend.describe()
            assert d["name"] == "threaded"
            assert d["threads"] == 2
            assert d["parallel"] is True
        finally:
            backend.close()


class TestCol2imDispatch:
    def test_tiled_wins_when_geometry_allows(self):
        from repro.nn.functional import col2im_dispatch

        assert col2im_dispatch(2, 2, True, 8, 1 << 20) == "tiled"

    def test_threaded_for_big_scatters_under_parallel_backend(self):
        from repro.nn.functional import THREADED_SCATTER_MIN_SIZE, col2im_dispatch

        assert (
            col2im_dispatch(5, 1, False, 8, THREADED_SCATTER_MIN_SIZE, parallel=True)
            == "threaded"
        )

    def test_loop_fallback_serial_or_small(self):
        from repro.nn.functional import THREADED_SCATTER_MIN_SIZE, col2im_dispatch

        assert col2im_dispatch(5, 1, False, 8, 1 << 20, parallel=False) == "loop"
        assert (
            col2im_dispatch(5, 1, False, 1, 1 << 20, parallel=True) == "loop"
        )  # single batch row: nothing to slice
        assert (
            col2im_dispatch(
                5, 1, False, 8, THREADED_SCATTER_MIN_SIZE - 1, parallel=True
            )
            == "loop"
        )

    def test_dispatch_reads_active_backend(self):
        from repro.nn.functional import THREADED_SCATTER_MIN_SIZE, col2im_dispatch

        with use_array_backend("threaded", threads=2):
            assert (
                col2im_dispatch(5, 1, False, 8, THREADED_SCATTER_MIN_SIZE)
                == "threaded"
            )
        assert col2im_dispatch(5, 1, False, 8, THREADED_SCATTER_MIN_SIZE) == "loop"

    def test_threaded_scatter_bit_identical_to_loop(self):
        from repro.nn.functional import col2im_nhwc

        rng = np.random.default_rng(5)
        n, oh, ow, k, c = 6, 12, 12, 5, 16
        dcols = rng.standard_normal((n, oh, ow, k, k, c)).astype(np.float32)
        ref = np.empty((n, oh + k - 1, ow + k - 1, c), np.float32)
        col2im_nhwc(dcols, k, 1, out=ref, method="loop")
        got = np.empty_like(ref)
        with use_array_backend("threaded", threads=3):
            col2im_nhwc(dcols, k, 1, out=got, method="threaded")
        assert np.array_equal(got, ref)

    def test_threaded_method_degrades_without_pool(self):
        """method="threaded" under the numpy backend = the serial loop."""
        from repro.nn.functional import col2im_nhwc

        rng = np.random.default_rng(6)
        n, oh, ow, k, c = 2, 6, 6, 3, 4
        dcols = rng.standard_normal((n, oh, ow, k, k, c)).astype(np.float32)
        ref = np.empty((n, oh + k - 1, ow + k - 1, c), np.float32)
        col2im_nhwc(dcols, k, 1, out=ref, method="loop")
        got = np.empty_like(ref)
        col2im_nhwc(dcols, k, 1, out=got, method="threaded")
        assert np.array_equal(got, ref)


class TestConvThroughBackend:
    def test_conv_forward_backward_identical_under_threaded(self):
        """The conv hot path dispatches its GEMMs through the seam; the
        threaded backend must not change a single bit of the results."""
        from repro.nn import Conv2d

        rng = np.random.default_rng(7)
        x = rng.standard_normal((4, 3, 12, 12)).astype(np.float32)
        g = rng.standard_normal((4, 8, 12, 12)).astype(np.float32)

        def run_once():
            conv = Conv2d(3, 8, 3, padding=1, rng=np.random.default_rng(42))
            y = conv.forward(x)
            dx = conv.backward(g)
            return y, dx, conv.weight.grad.copy()

        y0, dx0, dw0 = run_once()
        with use_array_backend("threaded", threads=2):
            y1, dx1, dw1 = run_once()
        assert np.array_equal(y0, y1)
        assert np.array_equal(dx0, dx1)
        assert np.array_equal(dw0, dw1)


class TestComputeSection:
    def quick_payload(self, **compute) -> dict:
        payload = {
            "backend": "sequential",
            "model": {
                "name": "vgg11",
                "num_classes": 4,
                "input_hw": [16, 16],
                "width_multiplier": 0.125,
                "seed": 3,
            },
            "data": {
                "dataset": "cifar10",
                "num_classes": 4,
                "image_hw": [16, 16],
                "scale": 0.002,
                "seed": 7,
            },
            "budgets": {"memory_mb": 16, "epochs": 1},
        }
        if compute:
            payload["compute"] = compute
        return payload

    def test_round_trip(self):
        from repro.api import JobSpec

        spec = JobSpec.from_dict(
            self.quick_payload(
                array_backend="threaded", threads=2, bf16_weights=True, processes=3
            )
        )
        again = JobSpec.from_dict(spec.to_dict())
        assert again.compute == spec.compute
        assert again.compute.array_backend == "threaded"
        assert again.compute.threads == 2
        assert again.compute.bf16_weights is True
        assert again.compute.processes == 3

    def test_to_compute_config(self):
        from repro.api import ComputeSection

        cfg = ComputeSection(array_backend="threaded", threads=4).to_compute_config()
        assert isinstance(cfg, ComputeConfig)
        assert cfg.array_backend == "threaded"
        assert cfg.threads == 4

    def test_unknown_array_backend_rejected(self):
        from repro.api import JobSpec

        with pytest.raises(SpecError, match="unknown array_backend"):
            JobSpec.from_dict(self.quick_payload(array_backend="cuda"))

    @pytest.mark.parametrize("field", ["threads", "processes"])
    def test_positive_counts_required(self, field):
        from repro.api import JobSpec

        with pytest.raises(SpecError, match=f"{field} must be >= 1"):
            JobSpec.from_dict(self.quick_payload(**{field: 0}))

    def test_multiprocess_backend_forbids_cluster(self):
        from repro.api import JobSpec

        payload = self.quick_payload()
        payload["backend"] = "multiprocess"
        payload["cluster"] = {"devices": ["nano", "agx-orin"]}
        with pytest.raises(SpecError):
            JobSpec.from_dict(payload)

    def test_retarget_drops_forbidden_sections(self):
        from repro.api import JobSpec

        payload = self.quick_payload()
        payload["cluster"] = {"devices": ["nano", "agx-orin"]}
        spec = JobSpec.from_dict(payload).with_backend("multiprocess")
        assert spec.cluster is None
        assert spec.backend == "multiprocess"

    def test_compute_survives_retarget(self):
        from repro.api import JobSpec

        spec = JobSpec.from_dict(self.quick_payload(array_backend="threaded"))
        assert spec.with_backend("multiprocess").compute == spec.compute
