"""Module and Parameter abstractions.

The framework is deliberately simpler than a full autograd: every ``Module``
implements an explicit ``forward`` that caches what its ``backward`` needs,
and ``backward`` consumes the cache, accumulates parameter gradients, and
returns the gradient with respect to its input.  This is exactly the
granularity local learning operates at -- one trainable stage at a time --
and it keeps the memory accounting transparent (a design goal of the
NeuroFlux reproduction: retained tensors are explicit attributes).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.errors import ShapeError
from repro.nn.init import placeholder
from repro.perf.workspace import Workspace
from repro.utils.memo import memoized


class Parameter:
    """A trainable array with an accumulated gradient buffer."""

    __slots__ = ("data", "grad", "name")

    def __init__(self, data: np.ndarray, name: str = ""):
        if data.flags.writeable:
            self.data = np.ascontiguousarray(data)
            self.grad = np.zeros(self.data.shape, self.data.dtype)
        else:
            # A shape-only placeholder is kept as given, and its gradient
            # is one too; see placeholder() for why not np.zeros.
            self.data = data
            self.grad = placeholder(data.shape, data.dtype)
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return int(self.data.size)

    @property
    def nbytes(self) -> int:
        return int(self.data.nbytes)

    def zero_grad(self) -> None:
        self.grad.fill(0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Parameter(name={self.name!r}, shape={self.data.shape})"


class Module:
    """Base class for all layers and models.

    Subclasses implement ``forward(x)`` and ``backward(grad_out)``.  Child
    modules and parameters are discovered by walking instance attributes, so
    composition is plain attribute assignment (or lists of modules).
    """

    #: Attribute names of the plain arrays that are trained state without
    #: being parameters (BatchNorm's running statistics): no gradient, no
    #: optimizer, but :meth:`state_dict` carries them.
    buffer_names: tuple[str, ...] = ()

    #: Class flag: set True on modules whose ``backward`` accepts
    #: ``need_input_grad=False`` (lets callers skip the input-gradient
    #: kernels when the result would be discarded, e.g. the first layer of
    #: a locally trained stage).
    supports_no_input_grad = False

    def __init__(self) -> None:
        self.training = True
        self._ws: Workspace | None = None

    # -- computation ------------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    # -- traversal --------------------------------------------------------
    def children(self) -> Iterator["Module"]:
        for value in self.__dict__.values():
            if isinstance(value, Module):
                yield value
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield item

    def modules(self) -> Iterator["Module"]:
        """Yield self and every descendant module, depth-first."""
        yield self
        for child in self.children():
            yield from child.modules()

    def parameters(self) -> list[Parameter]:
        params: list[Parameter] = []
        for module in self.modules():
            for value in module.__dict__.values():
                if isinstance(value, Parameter):
                    params.append(value)
        return params

    def named_modules(self, prefix: str = "") -> Iterator[tuple[str, "Module"]]:
        """Yield ``(prefix, module)`` in :meth:`modules` order, where
        ``prefix`` is the module's attribute path plus a trailing dot
        (``"layers.0."``; ``""`` for self)."""
        yield prefix, self
        for attr, value in self.__dict__.items():
            if isinstance(value, Module):
                yield from value.named_modules(f"{prefix}{attr}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_modules(f"{prefix}{attr}.{i}.")

    def named_parameters(self, prefix: str = "") -> list[tuple[str, Parameter]]:
        return [
            (path + attr, value)
            for path, module in self.named_modules(prefix)
            for attr, value in module.__dict__.items()
            if isinstance(value, Parameter)
        ]

    def named_buffers(self, prefix: str = "") -> list[tuple[str, np.ndarray]]:
        """Every declared buffer (:attr:`buffer_names`), named on the same
        paths as the parameters (``layers.1.running_mean``)."""
        return [
            (path + name, getattr(module, name))
            for path, module in self.named_modules(prefix)
            for name in module.buffer_names
        ]

    # -- workspace --------------------------------------------------------
    @property
    def workspace(self) -> Workspace | None:
        """Scratch-buffer workspace, or None when running unpooled."""
        return self._ws

    def _buf(
        self, name: str, shape: tuple[int, ...], dtype
    ) -> tuple[np.ndarray, bool]:
        """A named scratch buffer: workspace-backed when attached, fresh
        otherwise.  ``fresh`` is True whenever the contents are undefined
        (first use, any shape/dtype change, or another module of the pool
        used the slot since), letting callers amortize one-time
        initialization across steps."""
        if self._ws is not None:
            return self._ws.get(name, shape, dtype, self)
        return np.empty(shape, dtype), True

    def attach_workspace(self, pool: dict[int, Workspace] | None = None) -> "Module":
        """Bind self and every descendant to a workspace.

        Layers that support buffer reuse (conv, pooling, linear) then keep
        their per-step scratch -- column matrices, scatter targets, masks --
        alive across steps instead of reallocating.  Results are bitwise
        unchanged; only allocation behavior differs.

        The module at position ``i`` of :meth:`modules` takes
        ``pool.setdefault(i, Workspace())``.  Trees attached to one pool
        share their scratch position by position, so they must never run
        interleaved: one tree's forward-to-backward step ends before the
        next one's starts (the layer units of one block, or their heads).
        ``None`` is a fresh pool -- every module its own workspace.  The
        caller owns the lifetime: the scratch stays resident until
        :meth:`detach_workspace` on every tree bound to it.
        """
        pool = {} if pool is None else pool
        for i, module in enumerate(self.modules()):
            module._ws = pool.setdefault(i, Workspace())
        return self

    def detach_workspace(self) -> "Module":
        """Drop every workspace, and with it every scratch byte held."""
        for module in self.modules():
            module._ws = None
        return self

    # -- convenience ------------------------------------------------------
    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def train(self, mode: bool = True) -> "Module":
        for module in self.modules():
            module.training = mode
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    def parameter_bytes(self) -> int:
        """Resident weight bytes; a gradient buffer holds as many.
        Memoized (:mod:`repro.utils.memo`): a module's parameter shapes
        are fixed once it is built."""
        return memoized(
            self, "parameter-bytes", (), lambda: sum(p.nbytes for p in self.parameters())
        )

    # -- (de)serialization -------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        """Copies of every parameter and buffer, keyed by path: the one
        format module state moves in (block snapshots, the forked-stage
        ship, FedAvg, checkpoint files)."""
        state = {name: p.data.copy() for name, p in self.named_parameters()}
        state.update((name, b.copy()) for name, b in self.named_buffers())
        return state

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Copy ``state`` into the parameters and buffers in place; strict:
        every name must match, and every shape."""
        own = {name: p.data for name, p in self.named_parameters()}
        own.update(self.named_buffers())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise ShapeError(
                f"state dict mismatch: missing={sorted(missing)} "
                f"unexpected={sorted(unexpected)}"
            )
        for name, target in own.items():
            value = state[name]
            if value.shape != target.shape:
                raise ShapeError(
                    f"state {name!r}: expected shape {target.shape}, "
                    f"got {value.shape}"
                )
            target[...] = value


def run_backward(
    module: Module, grad_out: np.ndarray, need_input_grad: bool = True
) -> np.ndarray | None:
    """Run a module's backward, skipping input-gradient work when possible.

    Modules advertising ``supports_no_input_grad`` get the flag passed
    through (and may skip whole GEMM/scatter kernels); everything else runs
    its normal backward, with the result dropped if the caller does not
    need it.  Parameter gradients accumulate identically either way.
    """
    if not need_input_grad and module.supports_no_input_grad:
        return module.backward(grad_out, need_input_grad=False)
    grad = module.backward(grad_out)
    return grad if need_input_grad else None


class Identity(Module):
    """Pass-through module (used as a disabled shortcut/normalization slot)."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        return x

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return grad_out


class Sequential(Module):
    """Chain of modules applied in order; backward runs in reverse."""

    supports_no_input_grad = True

    def __init__(self, *layers: Module):
        super().__init__()
        self.layers = list(layers)

    def __len__(self) -> int:
        return len(self.layers)

    def __getitem__(self, idx: int) -> Module:
        return self.layers[idx]

    def __iter__(self) -> Iterator[Module]:
        return iter(self.layers)

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def backward(
        self, grad_out: np.ndarray, need_input_grad: bool = True
    ) -> np.ndarray | None:
        """Reverse pass; ``need_input_grad=False`` lets the first layer skip
        its input-gradient kernels when it advertises support (parameter
        gradients are always accumulated)."""
        for layer in reversed(self.layers[1:]):
            grad_out = layer.backward(grad_out)
        if not self.layers:
            return grad_out if need_input_grad else None
        return run_backward(self.layers[0], grad_out, need_input_grad)
