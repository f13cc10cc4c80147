"""Tests for platform descriptors and the execution-time simulator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.hw import (
    AGX_ORIN,
    ALL_PLATFORMS,
    GIGABIT_ETHERNET,
    JETSON_NANO,
    RASPBERRY_PI_4B,
    WAN_100MBIT,
    WIFI_AC,
    XAVIER_NX,
    ExecutionSimulator,
    Link,
    TimeLedger,
    get_platform,
)


class TestPlatforms:
    def test_table1_peak_flops(self):
        # Table 1 of the paper.
        assert RASPBERRY_PI_4B.peak_flops == pytest.approx(0.00969e12)
        assert JETSON_NANO.peak_flops == pytest.approx(0.472e12)
        assert XAVIER_NX.peak_flops == pytest.approx(1.33e12)
        assert AGX_ORIN.peak_flops == pytest.approx(4.76e12)

    def test_table1_memory(self):
        assert RASPBERRY_PI_4B.memory_bytes == 4 * 1024**3
        assert XAVIER_NX.memory_bytes == 8 * 1024**3
        assert AGX_ORIN.memory_bytes == 64 * 1024**3

    def test_compute_ordering(self):
        assert (
            RASPBERRY_PI_4B.effective_flops
            < JETSON_NANO.effective_flops
            < XAVIER_NX.effective_flops
            < AGX_ORIN.effective_flops
        )

    def test_get_platform(self):
        assert get_platform("agx-orin") is AGX_ORIN
        assert get_platform("PI4B") is RASPBERRY_PI_4B
        with pytest.raises(ConfigError):
            get_platform("tpu")

    def test_all_platforms_registry(self):
        assert len(ALL_PLATFORMS) == 4

    def test_pi_has_no_gpu(self):
        assert not RASPBERRY_PI_4B.has_gpu
        assert AGX_ORIN.has_gpu


class TestSimulator:
    def test_compute_time(self):
        sim = ExecutionSimulator(AGX_ORIN)
        t = sim.compute_time(AGX_ORIN.effective_flops)  # exactly 1 second of work
        assert t == pytest.approx(1.0)

    def test_negative_flops_raises(self):
        with pytest.raises(ConfigError):
            ExecutionSimulator(AGX_ORIN).compute_time(-1)

    def test_training_step_accumulates_categories(self):
        sim = ExecutionSimulator(JETSON_NANO)
        sim.add_training_step(flops=1e9, batch_bytes=1e6, n_kernels=10)
        assert sim.ledger.compute > 0
        assert sim.ledger.data_io > 0
        assert sim.ledger.overhead >= JETSON_NANO.batch_overhead
        assert sim.elapsed == pytest.approx(sim.ledger.total)

    def test_small_batches_cost_more_per_sample(self):
        """The Figure 1 effect: fixed per-batch overhead dominates at small
        batch sizes, so total epoch time shrinks as batch grows."""
        n_samples, flops_per_sample = 1024, 1e8

        def epoch_time(batch):
            sim = ExecutionSimulator(AGX_ORIN)
            steps = n_samples // batch
            for _ in range(steps):
                sim.add_training_step(flops_per_sample * batch, 12288 * batch, 20)
            return sim.elapsed

        t4, t256 = epoch_time(4), epoch_time(256)
        assert t4 > 4 * t256

    def test_inference_has_no_batch_overhead(self):
        sim = ExecutionSimulator(AGX_ORIN)
        sim.add_inference_batch(1e9, 1e6, 5)
        assert sim.ledger.overhead < AGX_ORIN.batch_overhead

    def test_cache_io_uses_storage_bandwidth(self):
        sim = ExecutionSimulator(JETSON_NANO)
        t = sim.add_cache_write(JETSON_NANO.storage_bandwidth)  # 1 second of bytes
        assert t == pytest.approx(1.0 + JETSON_NANO.storage_latency)
        assert sim.ledger.cache_io == pytest.approx(t)

    def test_slower_platform_takes_longer(self):
        work = dict(flops=1e10, batch_bytes=1e7, n_kernels=30)
        fast = ExecutionSimulator(AGX_ORIN)
        slow = ExecutionSimulator(RASPBERRY_PI_4B)
        fast.add_training_step(**work)
        slow.add_training_step(**work)
        assert slow.elapsed > fast.elapsed


#: Every charge that takes ``count``, as ``(method, single-step arguments)``.
COUNTED_CHARGES = [
    ("add_training_step", dict(flops=3.7e9, batch_bytes=1.3e6, n_kernels=23, input_mode=mode))
    for mode in ExecutionSimulator.INPUT_MODE_OVERHEAD
] + [
    ("add_inference_batch", dict(flops=3.7e9, batch_bytes=1.3e6, n_kernels=23)),
    ("add_cache_read", dict(nbytes=7.1e5, n_files=3)),
    ("add_cache_write", dict(nbytes=7.1e5, n_files=3)),
]


class TestCountedCharges:
    @pytest.mark.parametrize("charge", COUNTED_CHARGES, ids=lambda c: c[0])
    @pytest.mark.parametrize("time_scale", [1.0, 2.5])
    @settings(deadline=None, max_examples=25)
    @given(count=st.integers(1, 500))
    def test_one_counted_charge_equals_count_single_charges(self, charge, time_scale, count):
        from repro.obs.trace import Tracer

        method, kwargs = charge
        counted = ExecutionSimulator(JETSON_NANO, time_scale=time_scale)
        stepwise = ExecutionSimulator(JETSON_NANO, time_scale=time_scale)
        tracer = Tracer()
        counted.attach_tracer(tracer, "dev0")

        booked = getattr(counted, method)(**kwargs, count=count)
        singles = sum(getattr(stepwise, method)(**kwargs) for _ in range(count))

        assert booked == pytest.approx(singles, rel=1e-12)
        assert counted.ledger.as_dict() == pytest.approx(stepwise.ledger.as_dict(), rel=1e-12)
        (span,) = tracer.spans
        assert span.end_s == counted.ledger.total
        assert span.end_s - span.start_s == pytest.approx(booked, rel=1e-12)

    @pytest.mark.parametrize("charge", COUNTED_CHARGES, ids=lambda c: c[0])
    @pytest.mark.parametrize("count", [0, -3, 2.0, "2", None])
    def test_count_must_be_a_positive_int(self, charge, count):
        method, kwargs = charge
        sim = ExecutionSimulator(AGX_ORIN)
        with pytest.raises(ConfigError, match="count"):
            getattr(sim, method)(**kwargs, count=count)
        assert sim.elapsed == 0.0


class TestTimeLedger:
    def test_merge(self):
        a = TimeLedger(compute=1.0, data_io=0.5)
        b = TimeLedger(compute=2.0, cache_io=1.5)
        a.merge(b)
        assert a.compute == 3.0
        assert a.cache_io == 1.5
        assert a.total == pytest.approx(5.0)

    def test_as_dict(self):
        d = TimeLedger(compute=1.0).as_dict()
        assert d["compute"] == 1.0
        assert d["total"] == 1.0

    def test_as_dict_keys_track_fields(self):
        """Regression: adding a cost category (e.g. ``serving`` in PR 1,
        ``communication`` in PR 3) must show up in ``as_dict``, ``merge``
        and ``total`` automatically -- report/metrics code reads the field
        list, so a category that bypassed it would silently vanish."""
        from dataclasses import fields

        field_names = [f.name for f in fields(TimeLedger)]
        assert "serving" in field_names
        assert "communication" in field_names
        d = TimeLedger().as_dict()
        assert set(d) == {*field_names, "total"}

    def test_merge_and_total_cover_every_field(self):
        from dataclasses import fields

        n = len(fields(TimeLedger))
        a = TimeLedger(*[float(i + 1) for i in range(n)])
        b = TimeLedger(*[10.0] * n)
        a.merge(b)
        for i, f in enumerate(fields(TimeLedger)):
            assert getattr(a, f.name) == pytest.approx(i + 11.0)
        assert a.total == pytest.approx(sum(i + 11.0 for i in range(n)))

    def test_serving_batch_charged_to_serving(self):
        sim = ExecutionSimulator(AGX_ORIN)
        t = sim.add_serving_batch(1e9, 1e6, n_kernels=10)
        assert t > 0
        assert sim.ledger.serving == pytest.approx(t)
        assert sim.ledger.compute == 0.0
        assert sim.ledger.total == pytest.approx(t)

    def test_communication_charged_to_communication(self):
        sim = ExecutionSimulator(AGX_ORIN)
        t = sim.add_communication(GIGABIT_ETHERNET.bandwidth, GIGABIT_ETHERNET)
        assert t == pytest.approx(1.0 + GIGABIT_ETHERNET.latency)
        assert sim.ledger.communication == pytest.approx(t)
        assert sim.ledger.compute == 0.0
        assert sim.ledger.total == pytest.approx(t)


class TestLink:
    def test_transfer_time(self):
        link = Link(bandwidth=100.0, latency=0.5)
        assert link.transfer_time(0) == pytest.approx(0.5)
        assert link.transfer_time(200) == pytest.approx(2.5)

    def test_named_links_ordering(self):
        # A LAN moves bytes faster and with less latency than wifi or WAN.
        nbytes = 10 * 2**20
        assert (
            GIGABIT_ETHERNET.transfer_time(nbytes)
            < WIFI_AC.transfer_time(nbytes)
            < WAN_100MBIT.transfer_time(nbytes)
        )

    def test_invalid_links_raise(self):
        with pytest.raises(ConfigError):
            Link(bandwidth=0, latency=0.1)
        with pytest.raises(ConfigError):
            Link(bandwidth=1e6, latency=-1.0)
        with pytest.raises(ConfigError):
            GIGABIT_ETHERNET.transfer_time(-1)
