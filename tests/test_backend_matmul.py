"""repro.backend.registry.matmul: the one GEMM the nn kernels call.

numpy is the one array engine, so the function is ``np.matmul`` on one
BLAS thread; what these tests pin is that it stays exactly that, that it
hands the caller's thread count back, that every conv and linear GEMM
goes through the one binding a tracer patches, and that trained weights
do not move a bit with the BLAS thread count a process starts with.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import FakeBlas
from repro.backend import blas
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


class TestKernelsCallTheOneBinding:
    @pytest.mark.parametrize("module", ["repro.nn.conv", "repro.nn.linear"])
    def test_module_binding_is_the_registry_function(self, module):
        """A tracer patches every binding of ``registry.matmul`` it finds;
        the kernels must hold that very function, not a copy."""
        assert importlib.import_module(module).backend_matmul is matmul

    @pytest.mark.parametrize(
        "layer", ["conv", "conv_workspace", "linear", "linear_workspace"]
    )
    def test_forward_backward_gemms_go_through_it(self, layer, monkeypatch):
        """Forward is one GEMM, backward two (weight and input gradient),
        and routing them through the binding changes no bit -- also with a
        workspace attached, as the trainers run, where the GEMMs write
        into its slots."""
        from repro.nn import Conv2d, Linear

        rng = np.random.default_rng(7)
        if layer.startswith("conv"):
            x = rng.standard_normal((4, 3, 12, 12)).astype(np.float32)
            g = rng.standard_normal((4, 8, 12, 12)).astype(np.float32)

            def build():
                return Conv2d(3, 8, 3, padding=1, rng=np.random.default_rng(42))

            module = "repro.nn.conv"
        else:
            x = rng.standard_normal((6, 20)).astype(np.float32)
            g = rng.standard_normal((6, 10)).astype(np.float32)

            def build():
                return Linear(20, 10, rng=np.random.default_rng(42))

            module = "repro.nn.linear"

        def run_once():
            net = build()
            if layer.endswith("_workspace"):
                net.attach_workspace()
            y = net.forward(x)
            dx = net.backward(g)
            return y.copy(), dx.copy(), net.weight.grad.copy()

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


def _system(tiny_dataset, batch_norm: bool = True):
    return NeuroFlux(
        build_model(
            "vgg11",
            num_classes=4,
            input_hw=(16, 16),
            width_multiplier=0.125,
            seed=3,
            batch_norm=batch_norm,
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
    @pytest.mark.parametrize("batch_norm", [True, False], ids=["bn", "no-bn"])
    def test_run_is_bit_identical_on_rerun(self, tiny_dataset, batch_norm):
        """With batch norm the running statistics are trained state too;
        without it every conv carries a bias and its gradient."""
        first = _system(tiny_dataset, batch_norm)
        r_first = first.run(1)
        second = _system(tiny_dataset, batch_norm)
        r_second = second.run(1)
        _assert_same_weights(first, second)
        assert r_first.exit_test_accuracy == r_second.exit_test_accuracy
        assert r_first.result.sim_time_s == r_second.result.sim_time_s


class TestOneThreadRule:
    @staticmethod
    def _spy(monkeypatch, count):
        """Record the BLAS thread count each ``np.matmul`` starts under."""
        seen, real = [], np.matmul

        def spy(*args, **kwargs):
            seen.append(count())
            return real(*args, **kwargs)

        monkeypatch.setattr(np, "matmul", spy)
        return seen

    def test_runs_on_one_thread_and_restores_the_callers_count(self, monkeypatch):
        fake = FakeBlas(4).install(monkeypatch)
        seen = self._spy(monkeypatch, lambda: fake.count)
        a = np.ones((3, 5), np.float32)
        assert np.array_equal(matmul(a, a.T), np.full((3, 3), 5, np.float32))
        assert seen == [1]
        assert fake.sets == [1, 4] and fake.count == 4

    def test_restores_the_count_when_the_product_raises(self, monkeypatch):
        fake = FakeBlas(4).install(monkeypatch)
        with pytest.raises(ValueError):
            matmul(np.ones((2, 3)), np.ones((2, 3)))
        assert fake.count == 4

    def test_uncontrollable_blas_still_multiplies(self, monkeypatch):
        monkeypatch.setattr(blas, "_lookup", lambda: None)
        a = np.arange(6.0).reshape(2, 3)
        assert np.array_equal(matmul(a, a.T), a @ a.T)

    @real_blas
    def test_real_library(self, monkeypatch):
        _, getter = blas._lookup()
        before = getter()
        seen = self._spy(monkeypatch, getter)
        matmul(np.ones((64, 64), np.float32), np.ones((64, 64), np.float32))
        assert seen == [1]
        assert getter() == before


#: Trains ``examples/specs/pipelined.json`` with a device-3 failure (the
#: ``pipelined-failure`` report golden) and prints a sha256 over the
#: trained model's ``state_dict``.
_TRAIN_AND_DIGEST = """
import hashlib, json, sys
from repro.api import Callback, JobSpec, run

class Keep(Callback):
    def on_job_end(self, context):
        self.model = context.system.model

spec = JobSpec.from_json_file(sys.argv[1]).overlay(json.loads(sys.argv[2]))
keep = Keep()
run(spec, callbacks=[keep])
digest = hashlib.sha256()
for name, value in sorted(keep.model.state_dict().items()):
    digest.update(name.encode())
    digest.update(value.tobytes())
print(digest.hexdigest())
"""


@real_blas
def test_weights_do_not_depend_on_the_thread_count_a_process_starts_with():
    """Two fresh children, one started on one OpenBLAS thread and one on
    two, train the same spec to the same bytes.  Before every GEMM ran on
    one thread this spec diverged: OpenBLAS splits a product with a
    transposed left operand differently over two threads."""
    from test_report_golden import DEVICE3_FAILURE

    spec = Path(__file__).resolve().parent.parent / "examples/specs/pipelined.json"
    digests = []
    for threads in ("1", "2"):
        env = {
            **os.environ,
            "OPENBLAS_NUM_THREADS": threads,
            "PYTHONPATH": os.pathsep.join(sys.path),
        }
        done = subprocess.run(
            [sys.executable, "-c", _TRAIN_AND_DIGEST, str(spec),
             json.dumps({"runtime": DEVICE3_FAILURE})],
            env=env, capture_output=True, text=True, timeout=300, check=True,
        )
        digests.append(done.stdout.strip())
    assert len(digests[0]) == 64
    assert digests[0] == digests[1]
