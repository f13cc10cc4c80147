"""Weight initializers.

All initializers take an explicit ``numpy.random.Generator`` so that model
construction is fully deterministic given a seed (see ``repro.utils.rng``).

Inside a :class:`shapes_only` block the drawing initializers return
read-only zeros of the right shape and dtype instead (one zero,
broadcast: they hold no memory), and leave ``rng`` untouched.  A model
built there has exact shapes, parameter counts and byte sizes and no
meaningful weights: it is for the closed-form ``evalsim`` backend,
whose numbers read only shapes and bytes.  A
paper-scale evalsim cell would otherwise spend most of its time drawing
weights -- the heads of classic local learning alone are 3x3 convolutions
with 256 filters on every layer -- that no simulated number reads.
Training, serving and baseline models never enter the block, so they
draw the same weights from the same streams as they always have.
"""

from __future__ import annotations

import numpy as np

_shapes_only = False


class shapes_only:
    """Context manager: build models with placeholder weights.

    Inside it :func:`kaiming_normal`, :func:`kaiming_uniform` and
    :func:`xavier_uniform` return read-only zeros (``np.broadcast_to``
    of one zero), so training such a model or loading a state dict into
    it raises instead of silently running on zeros.  The previous setting
    is restored on exit, also when the body raises.
    """

    def __enter__(self) -> None:
        global _shapes_only
        self._before = _shapes_only
        _shapes_only = True

    def __exit__(self, *exc_info) -> None:
        global _shapes_only
        _shapes_only = self._before


def _placeholder(shape: tuple[int, ...], dtype) -> np.ndarray:
    # One zero broadcast to the shape: read-only, and no bytes behind it.
    # Real zeros would be touched or not depending on whether the
    # allocator serves them from its heap or from fresh pages, which made
    # a sweep's peak RSS swing by a third with the checkout path.
    return np.broadcast_to(np.zeros((), dtype), shape)


def _fan_in_out(shape: tuple[int, ...]) -> tuple[int, int]:
    if len(shape) == 2:  # linear: (out, in)
        return shape[1], shape[0]
    if len(shape) == 3:  # depthwise conv: (channels, kh, kw), one input each
        receptive = shape[1] * shape[2]
        return receptive, shape[0] * receptive
    if len(shape) == 4:  # conv: (out, in, kh, kw)
        receptive = shape[2] * shape[3]
        return shape[1] * receptive, shape[0] * receptive
    raise ValueError(f"unsupported weight shape {shape}")


def kaiming_normal(
    rng: np.random.Generator, shape: tuple[int, ...], dtype=np.float32
) -> np.ndarray:
    """He-normal init (gain for ReLU), fan-in mode."""
    fan_in, _ = _fan_in_out(shape)
    if _shapes_only:
        return _placeholder(shape, dtype)
    std = np.sqrt(2.0 / fan_in)
    return rng.normal(0.0, std, size=shape).astype(dtype)


def kaiming_uniform(
    rng: np.random.Generator, shape: tuple[int, ...], dtype=np.float32
) -> np.ndarray:
    """He-uniform init, fan-in mode."""
    fan_in, _ = _fan_in_out(shape)
    if _shapes_only:
        return _placeholder(shape, dtype)
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


def xavier_uniform(
    rng: np.random.Generator, shape: tuple[int, ...], dtype=np.float32
) -> np.ndarray:
    """Glorot-uniform init."""
    fan_in, fan_out = _fan_in_out(shape)
    if _shapes_only:
        return _placeholder(shape, dtype)
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


def zeros(shape: tuple[int, ...], dtype=np.float32) -> np.ndarray:
    return np.zeros(shape, dtype=dtype)


def ones(shape: tuple[int, ...], dtype=np.float32) -> np.ndarray:
    return np.ones(shape, dtype=dtype)
