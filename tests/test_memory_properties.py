"""Property-based tests on the memory model's structural guarantees."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.auxiliary import build_aux_heads
from repro.flops.count import module_forward_flops
from repro.memory.estimator import (
    MemoryBreakdown,
    bp_memory_by_batch,
    bp_training_memory,
    inference_memory,
    ll_memory_by_batch,
    ll_training_memory,
    iter_atomic_ops,
    local_unit_training_memory,
    op_workspace_bytes,
    optimizer_state_bytes,
    retained_bytes,
)
from repro.models import build_model


@pytest.fixture(scope="module")
def model():
    return build_model("vgg11", num_classes=10, input_hw=(32, 32), width_multiplier=0.25)


@pytest.fixture(scope="module")
def aux(model):
    return build_aux_heads(model, rule="aan")


class TestAffinity:
    """Training memory must be exactly affine in the batch size -- the
    Figure 8 observation the Profiler's linear models rely on."""

    @settings(deadline=None, max_examples=20)
    @given(a=st.integers(1, 100), b=st.integers(1, 100))
    def test_bp_affine(self, model, a, b):
        m = lambda k: bp_training_memory(model, k).total
        # Affine: second difference is zero -> m(a) + m(b) == m(a+b) + m(0+)
        lhs = m(a) + m(b)
        rhs = m(a + b) + (2 * m(1) - m(2))  # m(0) extrapolated
        assert abs(lhs - rhs) <= 2  # integer rounding only

    @settings(deadline=None, max_examples=20)
    @given(a=st.integers(1, 100))
    def test_unit_slope_constant(self, model, aux, a):
        spec = model.local_layers()[0]
        m = lambda k: local_unit_training_memory(spec, aux[0], k).total
        assert m(a + 1) - m(a) == m(2) - m(1)


class TestDominanceInvariants:
    @settings(deadline=None, max_examples=15)
    @given(batch=st.integers(1, 128))
    def test_every_unit_below_bp(self, model, aux, batch):
        """NeuroFlux's working set (any single unit) never exceeds BP's."""
        bp = bp_training_memory(model, batch).total
        for spec, head in zip(model.local_layers(), aux):
            assert local_unit_training_memory(spec, head, batch).total < bp

    @settings(deadline=None, max_examples=15)
    @given(batch=st.integers(1, 128))
    def test_inference_below_training(self, model, batch):
        assert inference_memory(model, batch).total < bp_training_memory(model, batch).total

    @settings(deadline=None, max_examples=10)
    @given(batch=st.integers(1, 64))
    def test_residency_modes_ordered(self, model, aux, batch):
        """params-only residency (AAN-LL) never exceeds full residency."""
        full = ll_training_memory(model, aux, batch, residency="full").total
        unit = ll_training_memory(model, aux, batch, residency="params-only").total
        assert unit <= full

    def test_breakdown_components_nonnegative(self, model, aux):
        for batch in (1, 7, 33):
            for breakdown in (
                bp_training_memory(model, batch),
                inference_memory(model, batch),
                ll_training_memory(model, aux, batch),
                local_unit_training_memory(model.local_layers()[2], aux[2], batch),
            ):
                assert breakdown.activations >= 0
                assert breakdown.parameters >= 0
                assert breakdown.gradients >= 0
                assert breakdown.optimizer >= 0
                assert breakdown.workspace >= 0


def _module_bytes(rule, module, in_shape):
    """A byte ``rule`` summed over ``module``'s ops, walked at ``in_shape``."""
    return sum(rule(op, i, o) for op, i, o in iter_atomic_ops(module, in_shape))


def _walked_unit_memory(spec, aux_head, batch):
    """``local_unit_training_memory`` by walking the unit at ``batch``
    itself -- the reference for the walk-once ``*_by_batch`` forms."""
    in_shape = (batch, spec.in_channels, *spec.in_hw)
    out_shape = (batch, spec.out_channels, *spec.out_hw)
    activations = 4 * int(np.prod(in_shape)) + 4 * int(np.prod(out_shape))
    activations += _module_bytes(retained_bytes, spec.module, in_shape)
    workspace = _module_bytes(op_workspace_bytes, spec.module, in_shape)
    params = spec.module.parameter_bytes()
    if aux_head is not None:
        activations += _module_bytes(retained_bytes, aux_head, out_shape)
        workspace += _module_bytes(op_workspace_bytes, aux_head, out_shape)
        activations += 4 * int(np.prod(module_forward_flops(aux_head, out_shape)[1]))
        params += aux_head.parameter_bytes()
    optimizer = optimizer_state_bytes(params, "sgd-momentum")
    return MemoryBreakdown(activations, params, params, optimizer, workspace)


def _walked_bp_memory(model, batch):
    shape = (batch, model.in_channels, *model.input_hw)
    retained = 4 * int(np.prod(shape))
    workspace = largest_output = 0
    for stage in [*model.stages, model.head]:
        retained += _module_bytes(retained_bytes, stage, shape)
        workspace += _module_bytes(op_workspace_bytes, stage, shape)
        shape = module_forward_flops(stage, shape)[1]
        largest_output = max(largest_output, 4 * int(np.prod(shape)))
    params = model.parameter_bytes()
    optimizer = optimizer_state_bytes(params, "sgd-momentum")
    return MemoryBreakdown(retained, params, params, optimizer, workspace + largest_output)


class TestWalkOnceMatchesWalkPerBatch:
    """A feasible-batch search probes ``*_by_batch`` closures; each probe
    must be the integer a full walk at that batch size gives."""

    @pytest.fixture(scope="class", params=["vgg11", "resnet18"])
    def net(self, request):
        return build_model(request.param, num_classes=10, width_multiplier=0.25)

    @settings(deadline=None, max_examples=15)
    @given(batch=st.integers(1, 300))
    def test_bp(self, net, batch):
        assert bp_memory_by_batch(net)(batch) == _walked_bp_memory(net, batch)

    @settings(deadline=None, max_examples=15)
    @given(batch=st.integers(1, 300))
    def test_ll_units(self, net, batch):
        heads = list(build_aux_heads(net, rule="aan")[:-1]) + [None]
        full = ll_memory_by_batch(net, heads, residency="full")(batch)
        units = [
            _walked_unit_memory(spec, head, batch)
            for spec, head in zip(net.local_layers(), heads)
        ]
        worst = max(units, key=lambda u: u.activations + u.workspace)
        assert full.activations == worst.activations
        assert full.workspace == sum(u.workspace for u in units)
        assert full == ll_training_memory(net, heads, batch, residency="full")


class TestOneByteRule:
    """Every footprint sizes gradients and optimizer state from
    ``parameter_bytes()``, and that is what the host holds for the
    weights: the partitioner plans against the arrays the process keeps."""

    @pytest.fixture(scope="class", params=["vgg11", "resnet18", "mobilenet"])
    def net(self, request):
        model = build_model(request.param, num_classes=10, width_multiplier=0.25)
        return model, build_aux_heads(model, rule="aan")

    @pytest.mark.parametrize("optimizer", ["sgd", "sgd-momentum", "adam"])
    def test_gradients_and_state_follow_parameter_bytes(self, net, optimizer):
        model, heads = net
        for module in (model, *heads):
            held = sum(p.data.nbytes for p in module.parameters())
            assert module.parameter_bytes() == held == 4 * module.num_parameters()

        def check(breakdown, params):
            assert breakdown.parameters == breakdown.gradients == params
            assert breakdown.optimizer == optimizer_state_bytes(params, optimizer)

        everything = model.parameter_bytes() + sum(h.parameter_bytes() for h in heads)
        check(bp_training_memory(model, 8, optimizer), model.parameter_bytes())
        check(ll_training_memory(model, heads, 8, optimizer, "full"), everything)
        for spec, head in zip(model.local_layers(), heads):
            unit = local_unit_training_memory(spec, head, 8, optimizer)
            check(unit, spec.module.parameter_bytes() + head.parameter_bytes())
        resident = ll_training_memory(model, heads, 8, optimizer, "params-only")
        assert resident.parameters == everything
        assert resident.optimizer == optimizer_state_bytes(resident.gradients, optimizer)
