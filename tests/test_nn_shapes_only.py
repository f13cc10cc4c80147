"""The shape-only build contract of ``repro.nn.init.shapes_only``.

Inside the block every initializer-drawn weight is a read-only zero
array, while every size the memory model reads (parameter counts, weight
and gradient bytes) equals the drawn model's.  Writing to such a weight
-- an optimizer step, a state-dict load -- raises.  Outside the block,
including after a body that raised, models draw exactly the weights they
always have (``tests/data/model_weights_golden.json``).
"""

import numpy as np
import pytest

from test_model_weights_golden import GOLDEN, mobilenet_digest
from repro.core.auxiliary import build_aux_heads
from repro.models import build_model, list_models
from repro.nn import SGD, Conv2d, DepthwiseConv2d, Linear
from repro.nn import init as nn_init
from repro.nn.init import shapes_only

# Every model the zoo builds: a sweep grid may name any of them shape-only.
MODELS = tuple(list_models())


def _build(name):
    """A small model and its classic and adaptive auxiliary heads."""
    model = build_model(name, width_multiplier=0.25, seed=3)
    heads = [
        head
        for rule in ("classic", "aan")
        for head in build_aux_heads(model, rule=rule, seed=3)
    ]
    return [model, *heads]


def _drawn_weights(module):
    """The parameters an initializer draws: conv, depthwise and linear weights."""
    return [
        m.weight
        for m in module.modules()
        if isinstance(m, (Conv2d, DepthwiseConv2d, Linear))
    ]


@pytest.fixture(scope="module", params=MODELS)
def built(request):
    with shapes_only():
        placeholder = _build(request.param)
    return placeholder, _build(request.param)


def test_weights_are_read_only_zeros(built):
    placeholder, _ = built
    for module in placeholder:
        weights = _drawn_weights(module)
        assert weights
        for w in weights:
            assert not w.data.flags.writeable, w.name
            assert not w.data.any(), w.name
            assert not any(w.data.strides), w.name  # one zero: no memory
            # The gradient is one zero too: ordinary np.zeros pages were
            # touched or not depending on the allocator's heap layout.
            assert not w.grad.flags.writeable and not any(w.grad.strides), w.name


def test_sizes_equal_the_drawn_model(built):
    placeholder, drawn = built
    assert len(placeholder) == len(drawn)
    for shaped, real in zip(placeholder, drawn):
        assert shaped.num_parameters() == real.num_parameters()
        assert shaped.parameter_bytes() == real.parameter_bytes()
        assert [(p.shape, p.data.dtype) for p in shaped.parameters()] == [
            (p.shape, p.data.dtype) for p in real.parameters()
        ]
        assert any(w.data.any() for w in _drawn_weights(real))


def test_optimizer_step_raises(built):
    model = built[0][0]
    optimizer = SGD(model.parameters(), lr=0.1, momentum=0.9)
    with pytest.raises(ValueError, match="read-only"):
        optimizer.step()


def test_load_state_dict_raises(built):
    placeholder, drawn = built
    with pytest.raises(ValueError, match="read-only"):
        placeholder[0].load_state_dict(drawn[0].state_dict())


def test_no_draw_is_spent():
    rng = np.random.default_rng(7)
    before = rng.bit_generator.state
    with shapes_only():
        nn_init.kaiming_normal(rng, (4, 3, 3, 3))
        nn_init.kaiming_uniform(rng, (5, 6))
        nn_init.xavier_uniform(rng, (5, 6))
    assert rng.bit_generator.state == before


def test_flag_is_restored_on_exit_and_on_error():
    with shapes_only():
        with shapes_only():
            pass
        assert not nn_init.kaiming_normal(np.random.default_rng(0), (2, 2)).any()
    assert nn_init.kaiming_normal(np.random.default_rng(0), (2, 2)).all()

    with pytest.raises(RuntimeError, match="inside"):
        with shapes_only():
            raise RuntimeError("inside")
    w = nn_init.kaiming_uniform(np.random.default_rng(0), (2, 2))
    assert w.flags.writeable and w.all()
    # Bit-identical to the weights recorded in a process that never
    # entered the block.
    assert mobilenet_digest(0) == GOLDEN["mobilenet-seed0"]


def test_depthwise_fan_in_is_the_kernel_area():
    assert nn_init._fan_in_out((8, 3, 3)) == (9, 72)
    assert nn_init._fan_in_out((8, 1, 3, 3)) == (9, 72)
