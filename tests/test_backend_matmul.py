"""repro.backend.registry.matmul: the one GEMM the nn kernels call.

numpy is the one array engine, so the function is ``np.matmul``; what these
tests pin is that it stays exactly that, that every conv and linear GEMM
goes through the one binding a tracer patches, and that training numerics
do not move a bit with the BLAS thread count in force.
"""

from __future__ import annotations

import importlib

import numpy as np
import pytest

from repro.backend import ComputeConfig, blas
from repro.backend.registry import matmul
from repro.core.config import NeuroFluxConfig
from repro.core.controller import NeuroFlux
from repro.models.zoo import build_model

real_blas = pytest.mark.skipif(
    blas._lookup() is None, reason="this numpy's BLAS is not a controllable OpenBLAS"
)


class TestMatmul:
    @pytest.mark.parametrize("m", [4, 64, 600, 1200])
    def test_bit_identical_to_np_matmul(self, m):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((m, 48)).astype(np.float32)
        b = rng.standard_normal((48, 32)).astype(np.float32)
        assert np.array_equal(matmul(a, b), np.matmul(a, b))

    def test_out_is_written_and_returned(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((800, 27)).astype(np.float32)
        b = rng.standard_normal((27, 64)).astype(np.float32)
        out = np.full((800, 64), np.nan, np.float32)
        assert matmul(a, b, out=out) is out
        assert np.array_equal(out, np.matmul(a, b))

    def test_batched_operands_broadcast(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((2, 600, 8)).astype(np.float32)
        b = rng.standard_normal((8, 4)).astype(np.float32)
        assert np.array_equal(matmul(a, b), a @ b)

    def test_mismatched_inner_dims_raise(self):
        with pytest.raises(ValueError):
            matmul(np.ones((3, 4), np.float32), np.ones((5, 2), np.float32))

    def test_compute_config_defaults(self):
        cfg = ComputeConfig()
        assert cfg.bf16_weights is False
        assert cfg.processes is None


class TestKernelsCallTheOneBinding:
    @pytest.mark.parametrize("module", ["repro.nn.conv", "repro.nn.linear"])
    def test_module_binding_is_the_registry_function(self, module):
        """A tracer patches every binding of ``registry.matmul`` it finds;
        the kernels must hold that very function, not a copy."""
        assert importlib.import_module(module).backend_matmul is matmul

    @pytest.mark.parametrize(
        "layer",
        [
            "conv",
            "conv_fused",
            "linear",
            "linear_fused",
        ],
    )
    def test_forward_backward_gemms_go_through_it(self, layer, monkeypatch):
        """Forward is one GEMM, backward two (weight and input gradient),
        and routing them through the binding changes no bit."""
        from repro.nn import Conv2d, Linear

        rng = np.random.default_rng(7)
        if layer.startswith("conv"):
            x = rng.standard_normal((4, 3, 12, 12)).astype(np.float32)
            g = rng.standard_normal((4, 8, 12, 12)).astype(np.float32)

            def build():
                return Conv2d(
                    3, 8, 3, padding=1, rng=np.random.default_rng(42),
                    fused=layer.endswith("fused"),
                )

            module = "repro.nn.conv"
        else:
            x = rng.standard_normal((6, 20)).astype(np.float32)
            g = rng.standard_normal((6, 10)).astype(np.float32)

            def build():
                return Linear(
                    20, 10, rng=np.random.default_rng(42),
                    fused=layer.endswith("fused"),
                )

            module = "repro.nn.linear"

        def run_once():
            net = build()
            y = net.forward(x)
            dx = net.backward(g)
            return y, dx, net.weight.grad.copy()

        reference = run_once()
        calls = []

        def counting(a, b, out=None):
            calls.append((a.shape, b.shape))
            return matmul(a, b, out=out)

        monkeypatch.setattr(importlib.import_module(module), "backend_matmul", counting)
        traced = run_once()
        assert len(calls) == 3
        for want, got in zip(reference, traced):
            assert np.array_equal(want, got)


def _system(tiny_dataset, fused: bool = True):
    return NeuroFlux(
        build_model(
            "vgg11",
            num_classes=4,
            input_hw=(16, 16),
            width_multiplier=0.125,
            seed=3,
            fused=fused,
        ),
        tiny_dataset,
        memory_budget=2 * 2**20,
        config=NeuroFluxConfig(batch_limit=32, seed=0),
    )


def _assert_same_weights(a, b):
    def weights(system):
        out = [p.data.copy() for p in system.model.parameters()]
        for aux in system.aux_heads:
            out.extend(p.data.copy() for p in aux.parameters())
        return out

    wa, wb = weights(a), weights(b)
    assert len(wa) == len(wb)
    for x, y in zip(wa, wb):
        assert np.array_equal(x, y)


class TestTrainingNumerics:
    @pytest.mark.parametrize("fused", [True, False], ids=["fused", "unfused"])
    def test_run_is_bit_identical_on_rerun(self, tiny_dataset, fused):
        first = _system(tiny_dataset, fused)
        r_first = first.run(1)
        second = _system(tiny_dataset, fused)
        r_second = second.run(1)
        _assert_same_weights(first, second)
        assert r_first.exit_test_accuracy == r_second.exit_test_accuracy
        assert r_first.result.sim_time_s == r_second.result.sim_time_s

    @real_blas
    def test_run_is_bit_identical_on_one_blas_thread(self, tiny_dataset):
        """OpenBLAS splits a GEMM's output, never its reduction, across its
        threads: pinning it to one thread must not move a bit."""
        default = _system(tiny_dataset)
        r_default = default.run(1)
        pinned = _system(tiny_dataset)
        with blas.blas_threads(1):
            r_pinned = pinned.run(1)
        _assert_same_weights(default, pinned)
        assert r_default.exit_test_accuracy == r_pinned.exit_test_accuracy
