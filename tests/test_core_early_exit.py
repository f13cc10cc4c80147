"""Tests for early-exit selection and the exit model."""

import numpy as np
import pytest

from helpers import rand_image_batch
from repro.core.auxiliary import build_aux_heads
from repro.core.early_exit import (
    ExitCandidate,
    MultiExitModel,
    exit_model_parameters,
    select_exit,
)
from repro.errors import ConfigError
from repro.models import build_model


def _cand(layer, acc, params):
    return ExitCandidate(layer_index=layer, val_accuracy=acc, num_parameters=params)


class TestSelectExit:
    def test_picks_best_accuracy(self):
        chosen = select_exit([_cand(0, 0.5, 10), _cand(1, 0.9, 100)], tolerance=0.0)
        assert chosen.layer_index == 1

    def test_prefers_fewer_params_within_tolerance(self):
        """Section 5.4 ('overthinking'): beyond saturation, accuracy gains
        are trivial, so the smaller exit wins."""
        cands = [_cand(0, 0.89, 10), _cand(1, 0.90, 100), _cand(2, 0.895, 500)]
        chosen = select_exit(cands, tolerance=0.02)
        assert chosen.layer_index == 0

    def test_tie_broken_by_shallower_layer(self):
        cands = [_cand(0, 0.9, 50), _cand(1, 0.9, 50)]
        assert select_exit(cands, tolerance=0.0).layer_index == 0

    def test_empty_raises(self):
        with pytest.raises(ConfigError):
            select_exit([])

    def test_negative_tolerance_raises(self):
        with pytest.raises(ConfigError):
            select_exit([_cand(0, 0.5, 1)], tolerance=-0.1)

    @pytest.mark.parametrize("trial", range(20))
    def test_selection_invariants_hold_on_random_candidates(self, trial):
        """Property: for any candidate set, the winner is feasible (within
        ``tolerance`` of the best accuracy) and minimal in
        ``(num_parameters, layer_index)`` among the feasible exits."""
        from repro.utils.rng import spawn_rng

        rng = spawn_rng(trial, "select-exit-property")
        tolerance = float(rng.uniform(0.0, 0.1))
        n = int(rng.integers(1, 12))
        candidates = [
            _cand(
                layer,
                float(rng.uniform(0.2, 1.0)),
                int(rng.integers(1, 1_000_000)),
            )
            for layer in range(n)
        ]
        chosen = select_exit(candidates, tolerance=tolerance)
        best_acc = max(c.val_accuracy for c in candidates)
        feasible = [c for c in candidates if c.val_accuracy >= best_acc - tolerance]
        assert chosen in feasible
        assert chosen.val_accuracy >= best_acc - tolerance
        for other in feasible:
            assert (chosen.num_parameters, chosen.layer_index) <= (
                other.num_parameters,
                other.layer_index,
            )


class TestOneExitModel:
    @pytest.fixture()
    def exit_model(self, small_vgg):
        heads = build_aux_heads(small_vgg, rule="aan")
        stages = [s.module for s in small_vgg.local_layers()[:3]]
        return MultiExitModel(stages, [2], [heads[2]], name="test-exit")

    def test_forward_shape(self, exit_model, small_vgg):
        x = rand_image_batch(2, 3, 16, 16, dtype=np.float32)
        assert exit_model.forward(x).shape == (2, small_vgg.num_classes)

    def test_predict(self, exit_model):
        x = rand_image_batch(3, 3, 16, 16, dtype=np.float32)
        preds = exit_model.predict(x)
        assert preds.shape == (3,)
        assert preds.dtype == np.int64 or np.issubdtype(preds.dtype, np.integer)

    def test_predict_proba_is_softmax_of_logits(self, exit_model):
        from repro.nn.functional import softmax

        x = rand_image_batch(3, 3, 16, 16, dtype=np.float32)
        probs = exit_model.predict_proba(x)
        np.testing.assert_allclose(probs, softmax(exit_model.forward(x), axis=1))
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=1e-6)
        assert (probs >= 0).all()

    def test_predict_delegates_to_predict_proba(self, exit_model):
        x = rand_image_batch(5, 3, 16, 16, dtype=np.float32)
        np.testing.assert_array_equal(
            exit_model.predict(x), np.argmax(exit_model.predict_proba(x), axis=1)
        )

    def test_starts_in_eval_mode(self, exit_model):
        assert not exit_model.training

    def test_param_count_matches_helper(self, exit_model, small_vgg):
        heads = build_aux_heads(small_vgg, rule="aan")
        stages = [s.module for s in small_vgg.local_layers()[:3]]
        assert exit_model.num_parameters() == exit_model_parameters(stages, heads[2])

    def test_exit_smaller_than_full_model(self, small_vgg):
        """The Table 2 effect at construction level: an early exit carries
        far fewer parameters than the full model."""
        heads = build_aux_heads(small_vgg, rule="aan")
        stages = [s.module for s in small_vgg.local_layers()[:2]]
        exit_params = exit_model_parameters(stages, heads[1])
        assert exit_params < small_vgg.num_parameters() / 3

    def test_requires_stages(self, small_vgg):
        heads = build_aux_heads(small_vgg, rule="aan")
        with pytest.raises(ConfigError):
            MultiExitModel([], [0], [heads[0]], name="x")
