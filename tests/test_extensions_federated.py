"""Tests for the federated-learning extension."""

import numpy as np
import pytest

from helpers import make_federation
from repro.errors import ConfigError
from repro.extensions import FederatedNeuroFlux, federated_average, shard_dataset


class TestFederatedAverage:
    def test_equal_weights_is_mean(self):
        a = {"w": np.array([1.0, 2.0], dtype=np.float32)}
        b = {"w": np.array([3.0, 4.0], dtype=np.float32)}
        avg = federated_average([a, b], [1.0, 1.0])
        np.testing.assert_allclose(avg["w"], [2.0, 3.0])

    def test_weighted(self):
        a = {"w": np.array([0.0], dtype=np.float32)}
        b = {"w": np.array([10.0], dtype=np.float32)}
        avg = federated_average([a, b], [3.0, 1.0])
        np.testing.assert_allclose(avg["w"], [2.5])

    def test_preserves_dtype(self):
        a = {"w": np.array([1.0], dtype=np.float32)}
        avg = federated_average([a], [1.0])
        assert avg["w"].dtype == np.float32

    def test_mismatched_keys_raise(self):
        with pytest.raises(ConfigError):
            federated_average(
                [{"a": np.zeros(1)}, {"b": np.zeros(1)}], [1.0, 1.0]
            )

    def test_empty_raises(self):
        with pytest.raises(ConfigError):
            federated_average([], [])

    def test_zero_weights_raise(self):
        with pytest.raises(ConfigError):
            federated_average([{"w": np.zeros(1)}], [0.0])


class TestFederatedStatistics:
    """FedAvg averages BatchNorm running statistics as it does weights."""

    def test_identical_clients_come_back_bit_for_bit(self):
        from repro.models.zoo import build_model
        from repro.utils.rng import spawn_rng

        model = build_model(
            "resnet18", num_classes=4, input_hw=(16, 16), width_multiplier=0.125
        )
        x = spawn_rng(0, "fedavg").normal(size=(4, 3, 16, 16)).astype(np.float32)
        model.forward(x)
        state = model.state_dict()
        assert any(key.endswith(".running_var") for key in state)
        avg = federated_average([state, dict(state), dict(state)], [90.0, 7.0, 33.0])
        assert set(avg) == set(state)
        for key, value in state.items():
            assert avg[key].dtype == value.dtype
            assert np.array_equal(avg[key], value), key

    def test_one_round_leaves_no_fresh_batchnorm(self):
        from repro.nn.normalization import BatchNorm2d

        fed = make_federation(("agx-orin", "agx-orin"))
        fed.run(rounds=1, local_epochs=1)
        bns = [m for m in fed._global_model.modules() if isinstance(m, BatchNorm2d)]
        assert bns
        for bn in bns:
            fresh = (bn.running_mean == 0).all() and (bn.running_var == 1).all()
            assert not fresh


class TestSharding:
    def test_shards_cover_dataset(self, tiny_dataset):
        shards = shard_dataset(tiny_dataset, 3)
        assert sum(len(y) for _, y in shards) == len(tiny_dataset.x_train)

    def test_invalid_client_count(self, tiny_dataset):
        with pytest.raises(ConfigError):
            shard_dataset(tiny_dataset, 0)


class TestFederatedNeuroFlux:
    @pytest.fixture(scope="class")
    def fed(self):
        return make_federation(("agx-orin", "agx-orin"))

    @pytest.fixture(scope="class")
    def fed_result(self, fed):
        return fed.run(rounds=2, local_epochs=2)

    def test_rounds_recorded(self, fed_result):
        assert len(fed_result.rounds) == 2
        for r in fed_result.rounds:
            assert r.sim_time_s > 0
            assert len(r.client_exit_layers) == 2

    def test_global_model_beats_chance(self, fed_result):
        # Two clients x two rounds x two local epochs on 90-sample shards:
        # the averaged global model must still clear chance (0.25).
        assert fed_result.final_accuracy > 0.3

    def test_accuracy_does_not_collapse_across_rounds(self, fed_result):
        first, last = fed_result.rounds[0], fed_result.rounds[-1]
        assert last.global_accuracy >= first.global_accuracy - 0.1

    def test_total_time_is_sum_of_round_maxima(self, fed_result):
        assert fed_result.total_sim_time_s == pytest.approx(
            sum(r.sim_time_s for r in fed_result.rounds)
        )

    def test_round_time_is_slowest_device_ledger_delta(self, fed_result):
        """Straggler accounting comes from the per-device cluster ledgers:
        the round latency is the slowest client's compute + communication."""
        for r in fed_result.rounds:
            assert len(r.client_times_s) == 2
            assert r.sim_time_s == pytest.approx(max(r.client_times_s))
            assert r.communication_time_s > 0

    def test_cluster_ledgers_carry_client_time(self, fed, fed_result):
        """After the run, each device ledger holds that client's total
        across rounds, including the WAN model transfers."""
        for device in fed.cluster:
            assert device.sim.ledger.communication > 0
            assert device.sim.ledger.compute > 0
        per_device_totals = [d.elapsed for d in fed.cluster]
        round_sums = [0.0, 0.0]
        for r in fed_result.rounds:
            for i, t in enumerate(r.client_times_s):
                round_sums[i] += t
        for total, expected in zip(per_device_totals, round_sums):
            assert total == pytest.approx(expected)

    def test_requires_clients(self, tiny_dataset):
        with pytest.raises(ConfigError):
            FederatedNeuroFlux("vgg11", [], tiny_dataset)


class TestAsyncFederated:
    """Bounded-staleness asynchronous rounds (no synchronous barrier)."""

    @pytest.fixture(scope="class")
    def async_result(self):
        fed = make_federation()
        return fed, fed.run_async(rounds=2, local_epochs=1, max_staleness=2)

    def test_applies_updates_in_event_clock_order(self, async_result):
        _, result = async_result
        assert result.n_applied > 0
        times = [u.time_s for u in result.applied]
        assert times == sorted(times)
        assert result.total_sim_time_s == pytest.approx(max(times))

    def test_staleness_is_bounded(self, async_result):
        _, result = async_result
        assert all(0 <= u.staleness <= 2 for u in result.applied)
        # Mixing weight decays with staleness.
        for u in result.applied:
            assert u.mix_weight == pytest.approx(0.5 / (1 + u.staleness))

    def test_fast_client_does_not_wait_for_straggler(self, async_result):
        """The first applied update lands at the *fast* client's pace --
        before the straggler (nano) has even finished one round."""
        fed, result = async_result
        nano_time = fed.cluster[0].sim.elapsed
        assert result.applied[0].time_s < nano_time / 2

    def test_async_wall_clock_no_worse_than_sync(self, async_result):
        _, result = async_result
        sync = make_federation().run(rounds=2, local_epochs=1)
        assert result.total_sim_time_s <= sync.total_sim_time_s * (1 + 1e-9)

    def test_model_still_learns(self, async_result):
        _, result = async_result
        assert result.final_accuracy > 0.3

    def test_stale_updates_rejected_when_bound_is_zero(self):
        """max_staleness=0 admits only updates trained against the very
        latest global version -- concurrent clients must see rejections."""
        fed = make_federation(("nano", "agx-orin", "agx-orin"))
        result = fed.run_async(rounds=2, local_epochs=1, max_staleness=0)
        assert result.n_rejected > 0
        assert all(u.staleness == 0 for u in result.applied)

    def test_duration_cap_limits_straggler_rounds(self):
        """Under a wall-clock budget the fast device contributes more
        rounds than the throttled one (straggler mitigation)."""
        from repro.runtime import DeviceSlowdown, EventSchedule

        fed = make_federation(("agx-orin", "agx-orin"))
        probe = make_federation(("agx-orin",))
        one_round = probe.run(rounds=1, local_epochs=1).total_sim_time_s
        events = EventSchedule([DeviceSlowdown(time_s=0.0, device=0, factor=4.0)])
        result = fed.run_async(duration_s=3.2 * one_round, events=events)
        by_client = {0: 0, 1: 0}
        for u in result.applied:
            by_client[u.client_id] += 1
        assert by_client[1] > by_client[0]
        # The throttled client's ledger really ran slower per round.
        assert result.client_times_s[0] > 0

    def test_slowdown_scales_local_work_not_profiling_or_wan(self):
        """Faults follow the simulator's one rule: a throttled client's
        local work is scaled where it is charged; its profiling, block
        loads and WAN transfers are not."""
        from repro.runtime import DeviceSlowdown, EventSchedule

        plain = make_federation(("agx-orin",)).run_async(rounds=1)
        events = EventSchedule([DeviceSlowdown(time_s=0.0, device=0, factor=4.0)])
        slow = make_federation(("agx-orin",)).run_async(rounds=1, events=events)
        plain, slow = plain.device_ledgers[0], slow.device_ledgers[0]
        for category in ("compute", "data_io", "cache_io"):
            assert slow[category] == pytest.approx(4 * plain[category], rel=1e-12)
        assert slow["profiling"] == plain["profiling"]
        assert slow["communication"] == plain["communication"]
        # Training steps' dispatch overhead is scaled, the block load not.
        assert plain["overhead"] < slow["overhead"] < 4 * plain["overhead"]

    def test_reused_federation_runs_on_each_calls_own_clock(self):
        """The device clocks keep every earlier call's time; a call's
        duration, events and reported times start from its own start."""
        fed = make_federation()
        for _ in range(2):
            result = fed.run_async(duration_s=0.3)
            assert result.n_applied > 0
            for c, ledger in enumerate(result.device_ledgers):
                assert result.client_times_s[c] == ledger["total"]
            assert result.total_sim_time_s <= max(result.client_times_s)

    @pytest.mark.parametrize("follow_up", ["run_async", "run"])
    def test_a_calls_schedule_does_not_outlive_it(self, follow_up):
        """A permanent slowdown throttles only the call that scheduled it:
        the federation's next call charges what a fresh one does."""
        from repro.runtime import DeviceSlowdown, EventSchedule

        fed = make_federation()
        events = EventSchedule([DeviceSlowdown(time_s=0.0, device=0, factor=4.0)])
        fed.run_async(rounds=1, events=events)
        assert [device.sim.time_scale for device in fed.cluster] == [1.0, 1.0]
        second = getattr(fed, follow_up)(rounds=1)
        fresh = getattr(make_federation(), follow_up)(rounds=1)
        for got, want in zip(second.device_ledgers, fresh.device_ledgers):
            assert got["compute"] == pytest.approx(want["compute"], rel=1e-12)

    def test_failure_drops_client_and_in_flight_update(self):
        from repro.runtime import DeviceFailure, EventSchedule

        events = EventSchedule([DeviceFailure(time_s=1e-6, device=0)])
        fed = make_federation()
        result = fed.run_async(rounds=2, local_epochs=1, events=events)
        assert result.dropped_clients == [0]
        assert all(u.client_id != 0 for u in result.applied)

    def test_join_events_rejected(self):
        from repro.runtime import DeviceJoin, EventSchedule

        fed = make_federation()
        events = EventSchedule([DeviceJoin(time_s=0.0, platform="nano")])
        with pytest.raises(ConfigError):
            fed.run_async(rounds=1, events=events)

    def test_needs_a_stop_condition(self):
        fed = make_federation()
        with pytest.raises(ConfigError):
            fed.run_async()
        with pytest.raises(ConfigError):
            fed.run_async(rounds=0)
        with pytest.raises(ConfigError):
            fed.run_async(rounds=1, base_mix=0.0)
