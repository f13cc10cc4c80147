"""The structural-fact memo (:mod:`repro.utils.memo`): what it returns is
what a fresh walk returns, its entries leave with their module, and it
keeps one entry per per-sample shape whatever the batch."""

import gc
import weakref

from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import unmemoized

from repro.core.auxiliary import build_aux_heads
from repro.core.worker import block_cost
from repro.flops import count
from repro.flops.count import count_module_kernels, module_forward_flops
from repro.memory.estimator import _sample_ops, bp_training_memory
from repro.models import build_model
from repro.models.layers import conv_unit
from repro.models.zoo import list_models
from repro.nn.init import shapes_only
from repro.utils import memo
from repro.utils.rng import spawn_rng


def _units(model):
    """Every stage and head of ``model`` with its per-sample input shape:
    the stages, the classifier head, and one AAN head per stage."""
    specs = model.local_layers()
    units = [(s.module, (s.in_channels, *s.in_hw)) for s in specs]
    last = specs[-1]
    units.append((model.head, (last.out_channels, *last.out_hw)))
    heads = build_aux_heads(model, rule="aan")
    units += [(h, (s.out_channels, *s.out_hw)) for s, h in zip(specs, heads)]
    return units


def _facts(module, shape, batches):
    return (
        tuple(_sample_ops(module, shape)),
        # Through the module attribute: unmemoized() swaps it for the
        # walk at the full batch.
        [count.module_forward_flops(module, (b, *shape)) for b in batches],
        count_module_kernels(module),
        module.parameter_bytes(),
    )


@settings(max_examples=30, deadline=None)
@given(
    name=st.sampled_from(list_models()),
    width=st.sampled_from([0.125, 0.25, 1.0]),
    hw=st.sampled_from([32, 16, 8, 2]),
    batches=st.lists(st.integers(1, 4096), min_size=1, max_size=4),
)
def test_memoized_facts_equal_a_fresh_walk(name, width, hw, batches):
    with shapes_only():
        model = build_model(name, input_hw=(hw, hw), width_multiplier=width)
        units = _units(model)
    for module, (c, h, w) in units:
        # Each unit at its own input and at twice its size (a second key),
        # twice: the first call fills the memo, the second reads it.
        for shape in ((c, h, w), (c, 2 * h, 2 * w)):
            memoized = [_facts(module, shape, batches) for _ in range(2)]
            with unmemoized():
                fresh = _facts(module, shape, batches)
            assert memoized[0] == memoized[1] == fresh
            assert all(type(f) is int for f, _ in memoized[1][1])


def test_entries_leave_with_the_model():
    gc.collect()
    before = len(memo._FACTS)
    model = build_model("resnet18", width_multiplier=0.125)
    heads = build_aux_heads(model)
    specs = model.local_layers()
    block_cost(specs, heads, range(len(specs)), 8)
    bp_training_memory(model, 8)
    stem_conv = specs[0].module[0]
    _sample_ops(stem_conv, (specs[0].in_channels, *specs[0].in_hw))
    del stem_conv
    refs = [weakref.ref(m) for root in [model, *heads] for m in root.modules()]
    assert len(memo._FACTS) > before
    del model, heads, specs
    gc.collect()
    assert all(ref() is None for ref in refs)
    assert len(memo._FACTS) == before


def test_one_flops_entry_per_sample_shape():
    model = build_model("vgg11", width_multiplier=0.125)
    spec = model.local_layers()[1]
    shape = (spec.in_channels, *spec.in_hw)
    for batch in range(1, 200):
        module_forward_flops(spec.module, (batch, *shape))
    assert list(memo._FACTS[spec.module]) == [("forward-flops", shape)]
    module_forward_flops(spec.module, (3, spec.in_channels, 4, 4))
    assert len(memo._FACTS[spec.module]) == 2
    # The walk below the unit is not memoized: its leaves are no keys.
    assert not any(child in memo._FACTS for child in spec.module)


def test_a_new_stage_or_head_drops_the_model_entry():
    model = build_model("vgg11", width_multiplier=0.125)
    before = model.parameter_bytes()
    channels, hw = model.feature_shape
    extra = conv_unit(channels, channels)
    model.add_stage("extra", extra, channels, hw)
    assert model.parameter_bytes() == before + extra.parameter_bytes()
    model.add_head(spawn_rng(0, "head"))
    assert model not in memo._FACTS
    with unmemoized():
        fresh = model.parameter_bytes()
    assert model.parameter_bytes() == fresh
