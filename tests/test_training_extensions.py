"""Tests for the Section-7 baselines: checkpointing and microbatching."""

import numpy as np
import pytest

from repro.models import build_model
from repro.training import (
    BackpropTrainer,
    GradientCheckpointTrainer,
    MicrobatchTrainer,
)
from repro.memory.estimator import bp_training_memory, checkpointed_training_memory


@pytest.fixture()
def setup(tiny_dataset):
    model = build_model(
        "vgg11", num_classes=4, input_hw=(16, 16), width_multiplier=0.125, seed=0
    )
    return model, tiny_dataset


class TestGradientCheckpointing:
    def test_memory_below_bp(self, setup):
        """The whole point: checkpointing trades compute for memory."""
        model, _ = setup
        for batch in (8, 32, 128):
            ckpt = checkpointed_training_memory(model, batch)
            bp = bp_training_memory(model, batch).total
            assert ckpt < bp

    def test_time_above_bp(self, setup):
        """...and the trade-off costs training time (recomputation)."""
        model, data = setup
        bp = BackpropTrainer(model, data, seed=1).train(epochs=1, batch_size=32)
        model2 = build_model(
            "vgg11", num_classes=4, input_hw=(16, 16), width_multiplier=0.125, seed=0
        )
        ckpt = GradientCheckpointTrainer(model2, data, seed=1).train(
            epochs=1, batch_size=32
        )
        assert ckpt.sim_time_s > bp.sim_time_s

    def test_learns(self, setup):
        model, data = setup
        result = GradientCheckpointTrainer(model, data, lr=0.05, seed=2).train(
            epochs=4, batch_size=32
        )
        assert result.final_accuracy > 0.45

    def test_gradients_match_plain_bp(self, tiny_dataset):
        """Recompute-based backward must produce the same parameter
        gradients as plain BP for identical inputs and weights."""
        from repro.nn import CrossEntropyLoss

        def grads_for(trainer_style: str):
            model = build_model(
                "vgg11", num_classes=4, input_hw=(16, 16), width_multiplier=0.125, seed=5
            )
            x = tiny_dataset.x_train[:8]
            y = tiny_dataset.y_train[:8]
            loss_fn = CrossEntropyLoss()
            stages = list(model.stages) + [model.head]
            if trainer_style == "plain":
                logits = model.forward(x)
                loss_fn(logits, y)
                model.zero_grad()
                model.backward(loss_fn.backward())
            else:
                boundaries = [x]
                h = x
                for stage in stages:
                    h = stage.forward(h)
                    boundaries.append(h)
                loss_fn(boundaries[-1], y)
                model.zero_grad()
                grad = loss_fn.backward()
                for i in reversed(range(len(stages))):
                    stages[i].forward(boundaries[i])
                    grad = stages[i].backward(grad)
            return {name: p.grad.copy() for name, p in model.named_parameters()}

        plain = grads_for("plain")
        ckpt = grads_for("checkpoint")
        for name in plain:
            np.testing.assert_allclose(
                plain[name], ckpt[name], rtol=1e-3, atol=1e-5, err_msg=name
            )


class TestMicrobatching:
    def test_micro_batch_respects_budget(self, setup):
        model, data = setup
        trainer = MicrobatchTrainer(model, data, logical_batch=64)
        budget = bp_training_memory(model, 8).total
        trainer.memory_budget = budget
        assert trainer.micro_batch_size() == 8

    def test_learns(self, setup):
        model, data = setup
        result = MicrobatchTrainer(
            model, data, logical_batch=32, lr=0.05, seed=3
        ).train(epochs=4)
        assert result.final_accuracy > 0.45
        assert result.method == "microbatching"

    def test_slower_under_tight_budget(self, tiny_dataset):
        def run(budget_batch):
            model = build_model(
                "vgg11", num_classes=4, input_hw=(16, 16), width_multiplier=0.125, seed=0
            )
            budget = bp_training_memory(model, budget_batch).total
            return MicrobatchTrainer(
                model, tiny_dataset, logical_batch=64, memory_budget=budget
            ).train(epochs=1)

        tight = run(4)
        loose = run(64)
        assert tight.sim_time_s > loose.sim_time_s
        assert tight.peak_memory_bytes < loose.peak_memory_bytes

    def test_peak_memory_follows_micro_not_logical(self, setup):
        model, data = setup
        budget = bp_training_memory(model, 8).total
        result = MicrobatchTrainer(
            model, data, logical_batch=64, memory_budget=budget
        ).train(epochs=1)
        # Allow the allocator's 512-byte alignment on the peak reading.
        assert result.peak_memory_bytes <= budget + 512
        assert result.extras["logical_batch"] == 64
