"""Tests for the multi-exit model, cascade router and cost model."""

import numpy as np
import pytest

from repro.core.early_exit import MultiExitModel
from repro.errors import ConfigError
from repro.serving.cascade import CascadeCostModel, CascadeRouter


@pytest.fixture(scope="module")
def multi_exit(served_system):
    return served_system.build_multi_exit_model()


@pytest.fixture(scope="module")
def cost_model(served_system, multi_exit):
    return CascadeCostModel(
        multi_exit, served_system.model.in_channels, served_system.model.input_hw
    )


@pytest.fixture(scope="module")
def batch(served_system):
    return served_system.data.x_test[:32]


class TestMultiExitModel:
    def test_validation(self, multi_exit):
        stages = multi_exit.stages
        heads = multi_exit.exit_heads
        with pytest.raises(ConfigError):
            MultiExitModel([], [0], [heads[0]], name="x")
        with pytest.raises(ConfigError):
            MultiExitModel(stages, [], [], name="x")
        with pytest.raises(ConfigError):
            MultiExitModel(stages, [0, 1], [heads[0]], name="x")
        with pytest.raises(ConfigError):
            # deepest exit must sit at the last stage
            MultiExitModel(stages, [0], [heads[0]], name="x")
        with pytest.raises(ConfigError):
            MultiExitModel(stages[:2], [1, 0], [heads[0], heads[1]], name="x")

    def test_segments_partition_the_stage_chain(self, multi_exit):
        segmented = []
        for k in range(multi_exit.num_exits):
            segmented.extend(multi_exit.segment_stages(k))
        assert segmented == multi_exit.stages

    def test_forward_matches_segment_walk(self, multi_exit, batch):
        feats = batch
        for k in range(multi_exit.num_exits):
            feats = multi_exit.run_segment(k, feats)
        walked = multi_exit.exit_logits(multi_exit.num_exits - 1, feats)
        np.testing.assert_allclose(walked, multi_exit.forward(batch), rtol=1e-6)

    def test_predict_proba_rows_normalized(self, multi_exit, batch):
        probs = multi_exit.predict_proba(batch)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=1e-6)
        assert (probs >= 0).all()

    def test_subset_of_exits(self, served_system, batch):
        model = served_system.build_multi_exit_model([1, 4, 7])
        assert model.num_exits == 3
        assert len(model.stages) == 8
        router = CascadeRouter(model, threshold=0.5)
        routed = router.route(batch)
        assert routed.reach_counts[0] == len(batch)

    def test_out_of_range_exit_rejected(self, served_system):
        with pytest.raises(ConfigError):
            served_system.build_multi_exit_model([99])


class TestCascadeRouter:
    def test_threshold_zero_exits_everything_shallow(self, multi_exit, batch):
        routed = CascadeRouter(multi_exit, threshold=0.0).route(batch)
        assert routed.exit_counts[0] == len(batch)
        assert routed.reach_counts == [len(batch)] + [0] * (multi_exit.num_exits - 1)

    def test_shallow_only_matches_first_exit(self, multi_exit, batch):
        routed = CascadeRouter(multi_exit, mode="shallow-only").route(batch)
        feats = multi_exit.run_segment(0, batch)
        expected = np.argmax(multi_exit.exit_proba(0, feats), axis=1)
        np.testing.assert_array_equal(routed.predictions, expected)
        assert routed.exit_counts[0] == len(batch)

    def test_deepest_only_matches_full_model(self, multi_exit, batch):
        routed = CascadeRouter(multi_exit, mode="deepest-only").route(batch)
        np.testing.assert_array_equal(routed.predictions, multi_exit.predict(batch))
        assert routed.exit_counts[-1] == len(batch)
        assert routed.reach_counts == [len(batch)] * multi_exit.num_exits

    def test_cascade_predictions_consistent_with_exit(self, multi_exit, batch):
        """Each sample's prediction must be exactly what its exit head says,
        and its confidence must clear the gate unless it fell through to
        the deepest exit."""
        router = CascadeRouter(multi_exit, threshold=0.6)
        routed = router.route(batch)
        # walk all samples through every segment, scoring each exit
        feats = batch
        for k in range(multi_exit.num_exits):
            feats = multi_exit.run_segment(k, feats)
            probs = multi_exit.exit_proba(k, feats)
            here = routed.exit_indices == k
            np.testing.assert_array_equal(
                routed.predictions[here], np.argmax(probs[here], axis=1)
            )
            if k < multi_exit.num_exits - 1:
                assert (routed.confidences[here] >= 0.6).all()

    def test_reach_counts_nonincreasing_and_consistent(self, multi_exit, batch):
        routed = CascadeRouter(multi_exit, threshold=0.6).route(batch)
        reach = routed.reach_counts
        assert reach[0] == len(batch)
        assert all(a >= b for a, b in zip(reach, reach[1:]))
        assert sum(routed.exit_counts) == len(batch)

    def test_single_exit_fallback(self, served_system, batch):
        """With one materialized exit the cascade degenerates to the plain
        early-exit model regardless of threshold."""
        exit_layer = served_system.specs[-1].index
        model = served_system.build_multi_exit_model([exit_layer])
        routed = CascadeRouter(model, threshold=0.99).route(batch)
        single = served_system.build_exit_model(exit_layer)
        np.testing.assert_array_equal(routed.predictions, single.predict(batch))
        assert routed.exit_counts == [len(batch)]

    def test_scratch_is_sized_by_the_largest_batch_routed(self, multi_exit, batch):
        """Every batch size 1..32 re-views the slots the largest one
        allocated: a server's scratch does not grow with the number of
        distinct batch sizes it has seen."""

        def held():
            return sum(m.workspace.nbytes for m in multi_exit.modules())

        router = CascadeRouter(multi_exit, threshold=0.6)
        try:
            multi_exit.detach_workspace()
            router.route(batch)
            only_largest = held()
            assert only_largest > 0
            multi_exit.detach_workspace()
            # Prefixes of one batch: per-sample routing, so no segment
            # ever sees more rows than it does for the whole batch.
            for n in range(1, len(batch) + 1):
                router.route(batch[:n])
            assert len(batch) == 32 and held() == only_largest
            for n in (5, 32, 17):
                router.route(batch[:n])
            assert held() == only_largest
        finally:
            multi_exit.detach_workspace()

    def test_empty_batch(self, multi_exit):
        routed = CascadeRouter(multi_exit).route(np.zeros((0, 3, 16, 16), dtype=np.float32))
        assert len(routed.predictions) == 0
        assert routed.reach_counts == [0] * multi_exit.num_exits

    def test_threshold_validation(self, multi_exit):
        with pytest.raises(ConfigError):
            CascadeRouter(multi_exit, threshold=[0.5])
        with pytest.raises(ConfigError):
            CascadeRouter(multi_exit, threshold=1.5)
        with pytest.raises(ConfigError):
            CascadeRouter(multi_exit, mode="psychic")
        per_exit = CascadeRouter(multi_exit, threshold=[0.5] * (multi_exit.num_exits - 1))
        assert per_exit.thresholds[-1] == 0.0


class TestCascadeCostModel:
    def test_escalation_costs_more(self, cost_model, multi_exit):
        n = 16
        shallow = [n] + [0] * (multi_exit.num_exits - 1)
        deep = [n] * multi_exit.num_exits
        assert cost_model.batch_cost(shallow)[0] < cost_model.batch_cost(deep)[0]

    def test_full_cascade_costs_more_than_deepest_only(self, cost_model, multi_exit):
        """Scoring every head on the way down must cost more than one deep
        pass that skips the intermediate heads."""
        n = 16
        all_reach = [n] * multi_exit.num_exits
        assert cost_model.deepest_only_cost(n)[0] < cost_model.batch_cost(all_reach)[0]

    def test_empty_segments_launch_no_kernels(self, cost_model, multi_exit):
        n = 16
        shallow = [n] + [0] * (multi_exit.num_exits - 1)
        flops_s, kernels_s = cost_model.batch_cost(shallow)
        flops_d, kernels_d = cost_model.batch_cost([n] * multi_exit.num_exits)
        assert kernels_s < kernels_d

    def test_reach_length_validated(self, cost_model):
        with pytest.raises(ConfigError):
            cost_model.batch_cost([1])
