"""Shared test utilities: numerical gradient checking and tiny fixtures."""

from __future__ import annotations

import numpy as np

from repro.utils.rng import spawn_rng


def numerical_input_grad(forward_fn, x: np.ndarray, seed_grad: np.ndarray, eps: float = 1e-5):
    """Central-difference gradient of ``sum(forward(x) * seed_grad)`` w.r.t. x."""
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        up = float((forward_fn(x) * seed_grad).sum())
        flat[i] = orig - eps
        down = float((forward_fn(x) * seed_grad).sum())
        flat[i] = orig
        gflat[i] = (up - down) / (2 * eps)
    return grad


def check_module_input_grad(
    module, x: np.ndarray, rtol: float = 1e-4, atol: float = 1e-6, seed: int = 0
) -> None:
    """Assert a module's analytic input gradient matches finite differences.

    The module must be in training mode and operate in float64 for the
    check to be meaningful.
    """
    rng = spawn_rng(seed, "gradcheck")
    out = module.forward(x)
    seed_grad = rng.normal(size=out.shape).astype(x.dtype)
    analytic = module.backward(seed_grad)

    def eval_forward(xq):
        module_out = module.forward(xq)
        # Re-run backward to clear caches left by the probe forward.
        return module_out

    numeric = numerical_input_grad(eval_forward, x.copy(), seed_grad)
    # The probe forwards above leave a stale cache; clear it via a final
    # matched forward so subsequent assertions start clean.
    module.forward(x)
    np.testing.assert_allclose(analytic, numeric, rtol=rtol, atol=atol)


def check_param_grads(
    module, x: np.ndarray, rtol: float = 1e-4, atol: float = 1e-6, seed: int = 0
) -> None:
    """Assert analytic parameter gradients match finite differences."""
    rng = spawn_rng(seed, "param-gradcheck")
    out = module.forward(x)
    seed_grad = rng.normal(size=out.shape).astype(x.dtype)
    module.zero_grad()
    module.backward(seed_grad)
    for name, p in module.named_parameters():
        analytic = p.grad.copy()
        numeric = np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        nflat = numeric.reshape(-1)
        eps = 1e-5
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up = float((module.forward(x) * seed_grad).sum())
            flat[i] = orig - eps
            down = float((module.forward(x) * seed_grad).sum())
            flat[i] = orig
            nflat[i] = (up - down) / (2 * eps)
        np.testing.assert_allclose(
            analytic, numeric, rtol=rtol, atol=atol, err_msg=f"parameter {name}"
        )


def rand_image_batch(
    n: int, c: int, h: int, w: int, seed: int = 0, dtype=np.float64
) -> np.ndarray:
    rng = spawn_rng(seed, "batch")
    return rng.normal(size=(n, c, h, w)).astype(dtype)


class FakeBlas:
    """Stands in for ``repro.backend.blas._lookup``: hands out a
    ``(setter, getter)`` pair over a plain counter and records every
    lookup and every set, so tests can assert on BLAS control without
    touching the real library."""

    def __init__(self, count: int):
        self.count = count
        self.sets: list[int] = []
        self.lookups = 0

    def __call__(self):
        self.lookups += 1
        return self._set, lambda: self.count

    def _set(self, n: int) -> None:
        self.sets.append(n)
        self.count = n

    def install(self, monkeypatch) -> "FakeBlas":
        from repro.backend import blas

        monkeypatch.setattr(blas, "_lookup", self)
        return self
