"""The shared baseline frame charges exactly the price each trainer exposes.

``BaselineTrainer.train`` books one ``add_training_step`` per device pass
at the trainer's own ``step_price()``; the closed-form replays in
``repro.evalsim.training_time`` import the same cost functions.  If the
frame ever charged something else, those replays would price a step the
trainers never run.
"""

from dataclasses import replace

from helpers import BASELINE_TRAINERS
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.training
from repro.data.registry import dataset_spec
from repro.hw import AGX_ORIN, JETSON_NANO
from repro.hw.simulator import ExecutionSimulator
from repro.models import build_model


def _dataset(n_train):
    spec = dataset_spec("cifar10", num_classes=3, image_hw=(8, 8), seed=5)
    return replace(spec, n_train=n_train, n_val=4, n_test=4).materialize()


@settings(max_examples=20, deadline=None)
@given(
    trainer_name=st.sampled_from(BASELINE_TRAINERS),
    model_name=st.sampled_from(["vgg11", "resnet18", "mobilenet"]),
    width=st.sampled_from([0.125, 0.25]),
    n=st.integers(1, 9),
    platform=st.sampled_from([AGX_ORIN, JETSON_NANO]),
)
def test_one_batch_is_charged_at_the_exposed_step_price(
    trainer_name, model_name, width, n, platform
):
    data = _dataset(n)
    model = build_model(
        model_name, num_classes=3, input_hw=(8, 8), width_multiplier=width, seed=1
    )
    kwargs = {"platform": platform, "lr": 1e-3}
    if trainer_name == "LocalLearningTrainer":
        kwargs["classic_filters"] = 8
    if trainer_name == "MicrobatchTrainer":
        kwargs["logical_batch"] = n
    trainer = getattr(repro.training, trainer_name)(model, data, **kwargs)
    price = trainer.step_price()
    if trainer_name == "MicrobatchTrainer":
        # A budget that holds about half the logical batch: several passes.
        trainer.memory_budget = trainer.memory_at_batch(max(1, n // 2))
        result = trainer.train(1)
        assert result.batch_size == max(1, n // 2)
    else:
        result = trainer.train(1, batch_size=n)

    # A function of the model, not of the run.
    assert trainer.step_price() == price
    flops_per_sample, n_kernels = price
    assert flops_per_sample > 0 and n_kernels > 0
    fresh = ExecutionSimulator(platform)
    # One epoch of ``n`` samples is one loaded batch: one device pass per
    # ``batch_size`` samples of it.
    for start in range(0, n, result.batch_size):
        m = min(result.batch_size, n - start)
        fresh.add_training_step(
            flops_per_sample * m, data.spec.sample_bytes * m, n_kernels
        )
    assert result.sim_time_s == fresh.elapsed
    assert result.ledger.as_dict() == fresh.ledger.as_dict()
