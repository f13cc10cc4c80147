"""The sequential schedule is ``run()`` with distributed accounting --
on generated inputs, not just the fixed seeds of the schedule tests.

Over seed x ``use_cache`` x ``adaptive_batch`` x a cluster of 1-3
platforms x an arbitrary valid placement: the trained weights equal
``run()``'s bit for bit, the makespan is exactly the sum of what the
devices charged (they never overlap) and agrees with the merged ledger,
and on a one-device cluster -- which is what ``run()`` itself is -- the
whole ledger and every history point are equal too.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import weights_digest
from repro.core.config import NeuroFluxConfig
from repro.core.controller import NeuroFlux
from repro.data.registry import dataset_spec
from repro.models.zoo import build_model
from repro.parallel import Cluster

MB = 2**20
PLATFORMS = ("nano", "xavier-nx", "agx-orin", "pi4b")


@pytest.fixture(scope="module")
def data():
    spec = dataset_spec(
        "cifar10", num_classes=4, image_hw=(16, 16), noise_std=0.4, seed=7
    )
    return replace(spec, n_train=64, n_val=24, n_test=24).materialize()


def _system(data, platform, **config):
    from repro.hw.platforms import get_platform

    return NeuroFlux(
        build_model(
            "vgg11", num_classes=4, input_hw=(16, 16), width_multiplier=0.125, seed=3
        ),
        data,
        memory_budget=3 * MB // 4,
        platform=get_platform(platform),
        config=NeuroFluxConfig(batch_limit=32, **config),
    )


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    use_cache=st.booleans(),
    adaptive_batch=st.booleans(),
    platforms=st.lists(st.sampled_from(PLATFORMS), min_size=1, max_size=3),
    draw=st.data(),
)
def test_sequential_schedule_is_run_with_distributed_accounting(
    data, seed, use_cache, adaptive_batch, platforms, draw
):
    config = dict(seed=seed, use_cache=use_cache, adaptive_batch=adaptive_batch)
    base = _system(data, platforms[0], **config)
    base_report = base.run(epochs=1)
    placement = draw.draw(
        st.lists(
            st.integers(0, len(platforms) - 1),
            min_size=len(base_report.blocks),
            max_size=len(base_report.blocks),
        )
    )
    system = _system(data, platforms[0], **config)
    preport = system.train_parallel(
        Cluster.from_names(platforms, memory_budget=4 * MB),
        epochs=1,
        schedule="sequential",
        placement=placement,
    )
    result = preport.result

    assert weights_digest(system) == weights_digest(base)
    assert preport.placement == placement
    # Devices never overlap: the makespan is exactly what they charged.
    assert sum(ledger["total"] for ledger in preport.device_ledgers) == preport.makespan_s
    assert result.sim_time_s == preport.makespan_s
    # The merged ledger adds the same terms category-major instead of
    # device-major, so across several devices it may round differently.
    assert result.ledger.total == pytest.approx(preport.makespan_s, rel=1e-12)
    assert sum(preport.utilization) == pytest.approx(1.0)
    if len(platforms) == 1:
        assert result.ledger.total == preport.makespan_s
        assert result.ledger.as_dict() == base_report.result.ledger.as_dict()
        assert result.history == base_report.result.history
        assert result.peak_memory_bytes == base_report.result.peak_memory_bytes
        assert preport.block_reports == base_report.block_reports
