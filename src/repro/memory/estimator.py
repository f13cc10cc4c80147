"""Analytic GPU-memory model: the one place that decides what a training
step holds.

The paper's Profiler measures training-time GPU memory per layer and per
batch size (Figure 8) and observes it is linear in the batch size.  This
module writes down the quantity being measured: the tensors a CUDA autograd
engine retains for backward (conv/BN/linear retain their *inputs*, ReLU its
output, max-pool its indices), plus parameters, gradients, optimizer state
and the conv workspaces (im2col/implicit-GEMM buffers).  Gradients and
optimizer state are sized from ``parameter_bytes()``: one byte rule, a
gradient buffer per weight array, fp32 like it.

One model, two readers.  :func:`local_unit_tensors_by_batch` lists the
tensors one unit (a layer plus its auxiliary head) holds in a training
step.  :func:`local_unit_memory_by_batch` sums that list by tensor class,
and the Profiler (:mod:`repro.core.profiler`) allocates it tensor by
tensor on the simulated GPU, so a fitted line differs from the breakdown
by the allocator's alignment and nothing else.  The whole-model
footprints apply the same byte rules to the same per-sample op walk, and
:func:`boundary_sample_bytes` fixes what a sample carries from one block
to the next: a change to what training holds is an edit here alone.

Note the deliberate distinction from the numpy substrate: the
simulated-GPU numbers model the PyTorch/cuDNN retention semantics the
paper measured, not what ``repro.nn`` allocates.  What the host holds is
now of the same kind and order, block by block: while a block trains, its
units' :class:`~repro.perf.workspace.Workspace` slots -- sized by the
block's own batch, since evaluation runs at that batch too -- and nothing
of any other block.  The units train one at a time, so the block's layers
share one workspace per position and its heads another: each slot holds
its worst unit's request, as
:func:`repro.core.profiler.block_residency_bytes` counts the worst unit
alone.  Measured on ``benchmarks/e2e`` ``train_seq_cache`` (vgg11 x0.25,
8 MiB budget, blocks at batch 20/32/54/186): per-block host peaks of
12.6 / 12.3 / 12.3 / 12.5 MiB against a simulated peak of 8.0 MiB, ratio
1.58 (22.7 / 19.0 / 18.0 / 20.4 MiB, ratio 2.84, while every unit kept
its own slots), gated by ``tests/test_host_memory.py``.  What the model
does not explain of the remainder: (1) the slots are im2col lowerings --
an explicit ``cols`` matrix (k*k times the input) beside the ``out_mat``
GEMM operand, which backward reuses for its gradients -- where the model
charges retained inputs and one transient workspace; (2) layers without
workspace support (ReLU, the NHWC->NCHW output copies, BatchNorm's two
backward buffers) allocate fresh temporaries every step.  All counts
assume float32; ReLU
outputs are retained as float (PyTorch keeps the output tensor), dropout
masks 1 byte, pooling argmax indices 8 bytes (int64).  The last is a
modelling decision: the host's tiled ``MaxPool2d`` records its routing
as a k*k-byte bool one-hot mask per pooled output (4 bytes at k = 2), not
an index, but the model keeps charging ``INDEX_BYTES`` per pooled
output, as PyTorch's ``max_pool2d`` retains, because the simulated GPU
models that engine.

Four training footprints matter for the paper's comparisons (Figure 4 and
Section 7):

* :func:`bp_training_memory` -- end-to-end BP retains *every* layer's
  backward state at once.
* :func:`ll_training_memory` with ``residency="full"`` -- classic LL:
  the whole model plus every auxiliary head's parameters, gradient buffers
  and optimizer state stay resident; only one unit's activations live at a
  time, but the 256-filter heads make that unit large.
* :func:`local_unit_training_memory` -- one unit alone (layer + aux),
  which is what NeuroFlux's Worker keeps resident; with ``residency=
  "params-only"``, :func:`ll_training_memory` models AAN-LL as measured in
  Figures 4-6 (model weights resident, one unit trained at a time).
* :func:`checkpointed_training_memory` -- BP that keeps only the stage
  boundaries and recomputes one stage's interior at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator

from repro.errors import ConfigError, ShapeError
from repro.flops.count import module_forward_flops
from repro.models.base import ConvNet
from repro.models.layers import LayerSpec
from repro.nn.activations import LeakyReLU, ReLU, Tanh
from repro.nn.conv import Conv2d, DepthwiseConv2d
from repro.nn.dropout import Dropout
from repro.nn.flatten import Flatten
from repro.nn.linear import Linear
from repro.nn.module import Identity, Module, Sequential
from repro.nn.normalization import BatchNorm2d
from repro.nn.pooling import AdaptiveAvgPool2d, AvgPool2d, MaxPool2d

FLOAT_BYTES = 4
INDEX_BYTES = 8
MASK_BYTES = 1
#: An int64 class label travels with every sample's activations.
LABEL_BYTES = 8

#: Optimizer state bytes as a multiple of parameter bytes.
OPTIMIZER_STATE_MULTIPLIER = {
    "sgd": 0.0,
    "sgd-momentum": 1.0,
    "adam": 2.0,
}


@dataclass(frozen=True)
class MemoryBreakdown:
    """Byte-level decomposition of a training (or inference) footprint."""

    activations: int
    parameters: int
    gradients: int
    optimizer: int
    workspace: int

    @property
    def total(self) -> int:
        return (
            self.activations
            + self.parameters
            + self.gradients
            + self.optimizer
            + self.workspace
        )


def _numel(shape: tuple[int, ...]) -> int:
    return math.prod(shape)


def boundary_sample_bytes(elements: int) -> int:
    """Bytes one sample carries from a block to the next -- its fp32
    activation of ``elements`` scalars plus its label -- whether handed
    to the next pipeline stage or written to the activation cache."""
    return elements * FLOAT_BYTES + LABEL_BYTES


def optimizer_state_bytes(param_bytes: int, optimizer: str) -> int:
    if optimizer not in OPTIMIZER_STATE_MULTIPLIER:
        raise ConfigError(
            f"unknown optimizer {optimizer!r}; "
            f"known: {sorted(OPTIMIZER_STATE_MULTIPLIER)}"
        )
    return int(param_bytes * OPTIMIZER_STATE_MULTIPLIER[optimizer])


def iter_atomic_ops(
    module: Module, in_shape: tuple[int, ...]
) -> Iterator[tuple[Module, tuple[int, ...], tuple[int, ...]]]:
    """Yield ``(op, in_shape, out_shape)`` for every atomic op in order.

    Composites may provide an ``iter_memory_ops(in_shape)`` hook (the
    residual block uses this to expose both branches).
    """
    hook = getattr(module, "iter_memory_ops", None)
    if hook is not None:
        yield from hook(in_shape)
        return
    if isinstance(module, Sequential):
        shape = in_shape
        for child in module:
            yield from iter_atomic_ops(child, shape)
            _, shape = module_forward_flops(child, shape)
        return
    _, out_shape = module_forward_flops(module, in_shape)
    yield module, in_shape, out_shape


#: ``(op, in_shape, out_shape)`` of :func:`iter_atomic_ops` with the
#: batch axis dropped.
SampleOp = tuple[Module, tuple[int, ...], tuple[int, ...]]


def _sample_ops(module: Module, sample_shape: tuple[int, ...]) -> list[SampleOp]:
    """The atomic ops of ``module`` with per-sample shapes.

    Which ops run and every axis but the leading one are the same at any
    batch size, so a caller that probes many batch sizes walks the module
    tree once and re-applies the byte rules to this list.
    """
    return [
        (op, i[1:], o[1:])
        for op, i, o in iter_atomic_ops(module, (1, *sample_shape))
    ]


def _ops_bytes(rule, ops: list[SampleOp], batch_size: int) -> int:
    """Sum of a byte ``rule`` over ``ops`` at ``batch_size``."""
    return sum(rule(op, (batch_size, *i), (batch_size, *o)) for op, i, o in ops)


def retained_bytes(op: Module, in_shape: tuple[int, ...], out_shape: tuple[int, ...]) -> int:
    """Bytes autograd keeps alive after a training-mode forward of ``op``."""
    if isinstance(op, (Conv2d, DepthwiseConv2d, Linear)):
        return _numel(in_shape) * FLOAT_BYTES
    if isinstance(op, BatchNorm2d):
        # Input plus per-channel saved mean / inverse std.
        return _numel(in_shape) * FLOAT_BYTES + 2 * in_shape[1] * FLOAT_BYTES
    if isinstance(op, (ReLU, LeakyReLU, Tanh)):
        return _numel(out_shape) * FLOAT_BYTES
    if isinstance(op, MaxPool2d):
        return _numel(out_shape) * INDEX_BYTES
    if isinstance(op, (AvgPool2d, AdaptiveAvgPool2d, Flatten, Identity)):
        return 0
    if isinstance(op, Dropout):
        return _numel(in_shape) * MASK_BYTES
    raise ShapeError(f"no retained-bytes rule for {type(op).__name__}")


def op_workspace_bytes(op: Module, in_shape: tuple[int, ...], out_shape: tuple[int, ...]) -> int:
    """Transient lowering buffer a conv kernel needs while executing."""
    if isinstance(op, Conv2d):
        k = op.kernel_size
        n = in_shape[0]
        oh, ow = out_shape[2], out_shape[3]
        return n * oh * ow * op.in_channels * k * k * FLOAT_BYTES
    if isinstance(op, DepthwiseConv2d):
        k = op.kernel_size
        return _numel(out_shape) * k * k * FLOAT_BYTES
    return 0


def module_max_workspace_bytes(module: Module, in_shape: tuple[int, ...]) -> int:
    """Largest transient conv workspace while executing ``module``.

    Used for tightly-managed execution (NeuroFlux's single resident unit):
    one kernel runs at a time and the worst buffer bounds the peak.
    """
    return max(
        (op_workspace_bytes(op, i, o) for op, i, o in iter_atomic_ops(module, in_shape)),
        default=0,
    )


def module_peak_transient_bytes(module: Module, in_shape: tuple[int, ...]) -> int:
    """Largest single input+output pair alive while executing ``module``.

    This is the inference-mode activation footprint: no retention, only the
    tensor being consumed plus the tensor being produced.
    """
    peak = 0
    for _, i, o in iter_atomic_ops(module, in_shape):
        peak = max(peak, (_numel(i) + _numel(o)) * FLOAT_BYTES)
    return peak


def _stage_walk(model: ConvNet) -> list[tuple[list[SampleOp], tuple[int, ...]]]:
    """Every stage of ``model``, classifier head last, as its per-sample
    atomic ops and its per-sample output shape."""
    shape = (model.in_channels, *model.input_hw)
    walk = []
    for stage in [*model.stages, model.head]:
        ops = _sample_ops(stage, shape)
        _, out_shape = module_forward_flops(stage, (1, *shape))
        shape = out_shape[1:]
        walk.append((ops, shape))
    return walk


def bp_memory_by_batch(
    model: ConvNet, optimizer: str = "sgd-momentum"
) -> Callable[[int], MemoryBreakdown]:
    """:func:`bp_training_memory` as a function of the batch size alone.

    Walks the model once; each call of the result only re-applies the
    byte rules, which is what a feasible-batch search should pay per
    probe.
    """
    sample_shape = (model.in_channels, *model.input_hw)
    walk = _stage_walk(model)
    ops = [op for stage_ops, _ in walk for op in stage_ops]
    largest_output = max(_numel(shape) for _, shape in walk)
    params = model.parameter_bytes()
    optimizer_bytes = optimizer_state_bytes(params, optimizer)

    def at(batch_size: int) -> MemoryBreakdown:
        if batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        # The input batch itself, then every layer's backward state.
        retained = batch_size * _numel(sample_shape) * FLOAT_BYTES
        retained += _ops_bytes(retained_bytes, ops, batch_size)
        # The CUDA caching allocator keeps each kernel's lowering buffer
        # pooled across steps (re-used, never returned), so full-graph
        # training pays the *sum* of workspaces, not the max: a large part
        # of why BP's measured footprint exceeds its retained tensors.
        workspace = _ops_bytes(op_workspace_bytes, ops, batch_size)
        return MemoryBreakdown(
            activations=retained,
            parameters=params,
            gradients=params,
            optimizer=optimizer_bytes,
            workspace=workspace + batch_size * largest_output * FLOAT_BYTES,
        )

    return at


def bp_training_memory(
    model: ConvNet, batch_size: int, optimizer: str = "sgd-momentum"
) -> MemoryBreakdown:
    """Footprint of one end-to-end backprop training step.

    Backprop must retain every layer's backward state simultaneously, which
    is the core observation of the paper's Figure 1: activations dominate
    and scale with both depth and batch size.
    """
    return bp_memory_by_batch(model, optimizer)(batch_size)


def checkpointed_training_memory(
    model: ConvNet, batch_size: int, optimizer: str = "sgd-momentum"
) -> int:
    """Peak bytes of checkpointed BP (the Section 7 baseline).

    Boundary activations of every stage are retained; the interior retained
    set exists for only one segment at a time (the one being recomputed),
    so the peak adds the *largest* segment's interior to the boundary sum.
    """
    if batch_size < 1:
        raise ConfigError("batch_size must be >= 1")
    boundary = _numel((model.in_channels, *model.input_hw))
    worst_interior = 0
    for ops, out_shape in _stage_walk(model):
        interior = _ops_bytes(retained_bytes, ops, batch_size)
        interior += _ops_bytes(op_workspace_bytes, ops, batch_size)
        worst_interior = max(worst_interior, interior)
        boundary += _numel(out_shape)
    params = model.parameter_bytes()
    return (
        batch_size * boundary * FLOAT_BYTES
        + worst_interior
        + 2 * params
        + optimizer_state_bytes(params, optimizer)
    )


def inference_memory(model: ConvNet, batch_size: int) -> MemoryBreakdown:
    """Footprint of an inference forward pass (no retention)."""
    in_shape = (batch_size, model.in_channels, *model.input_hw)
    peak = 0
    workspace = 0
    shape = in_shape
    for stage in list(model.stages) + [model.head]:
        peak = max(peak, module_peak_transient_bytes(stage, shape))
        workspace = max(workspace, module_max_workspace_bytes(stage, shape))
        _, shape = module_forward_flops(stage, shape)
    params = model.parameter_bytes()
    return MemoryBreakdown(
        activations=peak,
        parameters=params,
        gradients=0,
        optimizer=0,
        workspace=workspace,
    )


#: The tensor class a unit's fixed tags are charged to; every other tag
#: (the input, retained tensors, outputs) is an activation.
_TENSOR_CLASS = {
    "params": "parameters",
    "grads": "gradients",
    "optimizer": "optimizer",
    "conv-workspace": "workspace",
}


def local_unit_tensors_by_batch(
    spec: LayerSpec, aux_head: Module | None, optimizer: str = "sgd-momentum"
) -> Callable[[int], list[tuple[str, int]]]:
    """The tensors one training step of a unit (layer + aux head) holds,
    as a function of the batch size alone: ``[(tag, nbytes)]``.

    In allocation order: parameters, gradients, optimizer state, the input
    batch, every tensor the layer retains for backward and its output, the
    same for the auxiliary head, then the conv workspaces, which stay
    pooled because the unit's own kernels run every step.  The unit is
    walked once; each call only re-applies the byte rules.
    """
    in_shape = (spec.in_channels, *spec.in_hw)
    out_shape = (spec.out_channels, *spec.out_hw)
    modules = [spec.module] if aux_head is None else [spec.module, aux_head]
    params = sum(m.parameter_bytes() for m in modules)
    fixed = [
        ("params", params),
        ("grads", params),
        ("optimizer", optimizer_state_bytes(params, optimizer)),
    ]

    # Per module: the tag prefix of its retained tensors, its per-sample
    # ops, then its output's tag and per-sample size.
    walks = [("retained/", _sample_ops(spec.module, in_shape), "layer-output", out_shape)]
    if aux_head is not None:
        _, aux_out = module_forward_flops(aux_head, (1, *out_shape))
        walks.append(
            ("aux-retained/", _sample_ops(aux_head, out_shape), "aux-output", aux_out[1:])
        )
    input_elements = _numel(in_shape)

    def at(batch_size: int) -> list[tuple[str, int]]:
        if batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        tensors = [*fixed, ("input", batch_size * input_elements * FLOAT_BYTES)]
        workspace = 0
        for prefix, ops, output_tag, output_shape in walks:
            tensors += [
                (prefix + type(op).__name__, retained_bytes(op, (batch_size, *i), (batch_size, *o)))
                for op, i, o in ops
            ]
            tensors.append((output_tag, batch_size * _numel(output_shape) * FLOAT_BYTES))
            workspace += _ops_bytes(op_workspace_bytes, ops, batch_size)
        tensors.append(("conv-workspace", workspace))
        return tensors

    return at


def local_unit_memory_by_batch(
    spec: LayerSpec, aux_head: Module | None, optimizer: str = "sgd-momentum"
) -> Callable[[int], MemoryBreakdown]:
    """:func:`local_unit_training_memory` as a function of the batch size
    alone: the unit's tensor list (:func:`local_unit_tensors_by_batch`)
    summed by tensor class."""
    tensors_at = local_unit_tensors_by_batch(spec, aux_head, optimizer)

    def at(batch_size: int) -> MemoryBreakdown:
        sums = dict.fromkeys(("activations", *_TENSOR_CLASS.values()), 0)
        for tag, nbytes in tensors_at(batch_size):
            sums[_TENSOR_CLASS.get(tag, "activations")] += nbytes
        return MemoryBreakdown(**sums)

    return at


def local_unit_training_memory(
    spec: LayerSpec,
    aux_head: Module | None,
    batch_size: int,
    optimizer: str = "sgd-momentum",
) -> MemoryBreakdown:
    """Footprint of training one local-learning unit (layer + aux head).

    Local learning only needs this single unit's state resident, which is
    the paper's memory win; the aux head's own activations are what make
    *classic* LL expensive at the early (large spatial) layers.
    """
    return local_unit_memory_by_batch(spec, aux_head, optimizer)(batch_size)


def ll_memory_by_batch(
    model: ConvNet,
    aux_heads: list[Module | None],
    optimizer: str = "sgd-momentum",
    residency: str = "full",
) -> Callable[[int], MemoryBreakdown]:
    """:func:`ll_training_memory` as a function of the batch size alone
    (every unit is walked once)."""
    specs = model.local_layers()
    if len(aux_heads) != len(specs):
        raise ShapeError(
            f"need one aux entry per layer: {len(aux_heads)} vs {len(specs)}"
        )
    if residency not in ("full", "params-only"):
        raise ConfigError(f"unknown residency {residency!r}")
    units = [
        local_unit_memory_by_batch(spec, aux, optimizer)
        for spec, aux in zip(specs, aux_heads)
    ]
    heads = [a for a in aux_heads if a is not None]
    params = model.parameter_bytes() + sum(a.parameter_bytes() for a in heads)

    def at(batch_size: int) -> MemoryBreakdown:
        worst_act = 0
        worst_workspace = 0
        worst_unit_grads = 0
        total_workspace = 0
        for unit_at in units:
            unit = unit_at(batch_size)
            total_workspace += unit.workspace
            if unit.activations + unit.workspace > worst_act + worst_workspace:
                worst_act = unit.activations
                worst_workspace = unit.workspace
                worst_unit_grads = unit.gradients
        if residency == "full":
            # Classic LL executes every layer each step: all workspaces
            # pooled, all parameter/gradient/optimizer state resident.
            grads = params
            workspace = total_workspace
        else:
            # AAN-LL measurement: weights resident, one unit active at a time.
            grads = worst_unit_grads
            workspace = worst_workspace
        return MemoryBreakdown(
            activations=worst_act,
            parameters=params,
            gradients=grads,
            optimizer=optimizer_state_bytes(grads, optimizer),
            workspace=workspace,
        )

    return at


def ll_training_memory(
    model: ConvNet,
    aux_heads: list[Module | None],
    batch_size: int,
    optimizer: str = "sgd-momentum",
    residency: str = "full",
) -> MemoryBreakdown:
    """Footprint of layer-wise local learning over a whole model.

    ``residency`` selects the deployment style:

    * ``"full"`` -- classic LL: the model and *every* auxiliary head keep
      parameters, gradient buffers and optimizer state resident (PyTorch
      ``.grad`` buffers and optimizer state persist across steps).  This is
      why classic LL exceeds BP in Figure 4 despite training one layer at
      a time.
    * ``"params-only"`` -- AAN-LL as measured in Figures 4-6: the model's
      weights stay resident, but gradients/optimizer state exist only for
      the unit being trained.
    """
    return ll_memory_by_batch(model, aux_heads, optimizer, residency)(batch_size)
