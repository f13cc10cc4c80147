"""Tests for the drift monitor (incl. the spurious-replacement edge cases)."""

import pytest

from repro.errors import ConfigError
from repro.runtime import DriftMonitor
from repro.runtime.monitor import DRIFT_THRESHOLD, EWMA_ALPHA, MIN_SAMPLES


class TestCoefficients:
    def test_unobserved_device_has_unit_coefficient(self):
        monitor = DriftMonitor(n_devices=3)
        assert monitor.coefficient(1) == 1.0
        assert monitor.coefficients() == [1.0, 1.0, 1.0]

    def test_first_observation_sets_ratio(self):
        monitor = DriftMonitor(n_devices=1)
        monitor.observe(0, predicted_s=1.0, observed_s=3.0)
        assert monitor.coefficient(0) == pytest.approx(3.0)

    def test_ewma_weighs_the_newest_ratio_by_alpha(self):
        monitor = DriftMonitor(n_devices=1)
        monitor.observe(0, predicted_s=1.0, observed_s=1.0)
        monitor.observe(0, predicted_s=1.0, observed_s=4.0)
        assert monitor.coefficient(0) == pytest.approx(
            (1 - EWMA_ALPHA) * 1.0 + EWMA_ALPHA * 4.0
        )

    def test_ewma_converges_to_persistent_ratio(self):
        monitor = DriftMonitor(n_devices=1)
        for _ in range(20):
            monitor.observe(0, predicted_s=1.0, observed_s=4.0)
        assert monitor.coefficient(0) == pytest.approx(4.0)

    def test_ensure_device_grows_state(self):
        monitor = DriftMonitor(n_devices=1)
        monitor.observe(5, predicted_s=1.0, observed_s=1.0)
        assert len(monitor.coefficients()) == 6

    def test_validation(self):
        with pytest.raises(ConfigError):
            DriftMonitor(n_devices=0)
        monitor = DriftMonitor(n_devices=1)
        with pytest.raises(ConfigError):
            monitor.observe(0, predicted_s=0.0, observed_s=1.0)
        with pytest.raises(ConfigError):
            monitor.observe(0, predicted_s=1.0, observed_s=-1.0)


class TestDriftDetection:
    def test_zero_observed_steps_is_not_drift(self):
        """A device with no measurements has given no evidence: never
        drifted, never a re-placement trigger."""
        monitor = DriftMonitor(n_devices=4)
        assert not monitor.any_drift()
        assert not any(monitor.drifted(d) for d in range(4))

    def test_faithful_device_never_drifts(self):
        """Observed == predicted for the whole run: the coefficient stays
        pinned at 1.0 and no spurious drift fires."""
        monitor = DriftMonitor(n_devices=1)
        for _ in range(100):
            monitor.observe(0, predicted_s=0.02, observed_s=0.02)
        assert monitor.coefficient(0) == pytest.approx(1.0)
        assert not monitor.drifted(0)

    def test_small_noise_stays_below_threshold(self):
        monitor = DriftMonitor(n_devices=1)
        for i in range(50):
            jitter = 1.0 + (0.2 if i % 2 else -0.2) * DRIFT_THRESHOLD
            monitor.observe(0, predicted_s=1.0, observed_s=jitter)
        assert not monitor.drifted(0)

    def test_single_sample_never_triggers(self):
        """MIN_SAMPLES gates detection: one wild measurement is not drift."""
        assert MIN_SAMPLES > 1
        monitor = DriftMonitor(n_devices=1)
        for _ in range(MIN_SAMPLES - 1):
            monitor.observe(0, predicted_s=1.0, observed_s=10.0)
            assert not monitor.drifted(0)
        monitor.observe(0, predicted_s=1.0, observed_s=10.0)
        assert monitor.drifted(0)

    def test_sustained_slowdown_detected(self):
        monitor = DriftMonitor(n_devices=2)
        for _ in range(5):
            monitor.observe(0, predicted_s=1.0, observed_s=4.0)
            monitor.observe(1, predicted_s=1.0, observed_s=1.0)
        assert monitor.drifted(0) and not monitor.drifted(1)

    def test_speedup_is_drift_too(self):
        """A device running far faster than modelled is also a mis-model."""
        monitor = DriftMonitor(n_devices=1)
        for _ in range(5):
            monitor.observe(0, predicted_s=1.0, observed_s=0.25)
        assert monitor.drifted(0)


class TestIdleDecay:
    """PR-4 follow-up: vacated devices must not stay blacklisted forever."""

    def test_decay_moves_coefficient_toward_unit(self):
        monitor = DriftMonitor(n_devices=2)
        monitor.observe(1, predicted_s=1.0, observed_s=3.0)
        monitor.decay_toward_unit(1, rate=0.5)
        assert monitor.coefficient(1) == pytest.approx(2.0)
        monitor.decay_toward_unit(1, rate=0.5)
        assert monitor.coefficient(1) == pytest.approx(1.5)

    def test_decay_works_below_unit_too(self):
        monitor = DriftMonitor(n_devices=1)
        monitor.observe(0, predicted_s=1.0, observed_s=0.2)
        monitor.decay_toward_unit(0, rate=0.5)
        assert monitor.coefficient(0) == pytest.approx(0.6)

    def test_repeated_decay_clears_drift(self):
        """An expired load spike stops blacklisting the device."""
        monitor = DriftMonitor(n_devices=1)
        for _ in range(3):
            monitor.observe(0, predicted_s=1.0, observed_s=4.0)
        assert monitor.drifted(0)
        for _ in range(20):
            monitor.decay_toward_unit(0, rate=0.25)
        assert not monitor.drifted(0)
        assert monitor.coefficient(0) == pytest.approx(1.0, abs=0.02)

    def test_decay_is_idempotent_at_unit(self):
        monitor = DriftMonitor(n_devices=1)
        monitor.decay_toward_unit(0, rate=0.5)
        assert monitor.coefficient(0) == 1.0

    def test_decay_rate_validation(self):
        monitor = DriftMonitor(n_devices=1)
        with pytest.raises(ConfigError):
            monitor.decay_toward_unit(0, rate=-0.1)
        with pytest.raises(ConfigError):
            monitor.decay_toward_unit(0, rate=1.5)

    def test_runtime_decays_only_idle_alive_devices(self):
        """The runtime relaxes exactly the alive devices hosting nothing."""
        from repro.runtime import AdaptiveRuntime
        from repro.runtime.events import SchedulePlayer
        from repro.runtime.runtime import IDLE_DECAY

        runtime = AdaptiveRuntime()
        runtime.monitor = DriftMonitor(n_devices=3)
        runtime.cluster = [object(), object(), object()]
        runtime.placement = [0, 0]          # device 1 idle, device 2 idle
        runtime._player = SchedulePlayer(None)
        runtime._player.failed.add(2)       # ... but device 2 is dead
        runtime.monitor.observe(0, 1.0, 3.0)
        runtime.monitor.observe(1, 1.0, 3.0)
        runtime.monitor.observe(2, 1.0, 3.0)
        runtime._decay_idle_coefficients()
        assert runtime.monitor.coefficient(0) == pytest.approx(3.0)  # hosting
        assert runtime.monitor.coefficient(1) == pytest.approx(  # idle
            1.0 + (1.0 - IDLE_DECAY) * 2.0
        )
        assert runtime.monitor.coefficient(2) == pytest.approx(3.0)  # dead
