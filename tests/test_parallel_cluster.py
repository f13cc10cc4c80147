"""Tests for the simulated multi-device cluster."""

import pytest

from repro.api.report import merge_ledger_summaries
from repro.errors import ConfigError
from repro.hw import GIGABIT_ETHERNET, WIFI_AC, Link
from repro.hw.platforms import AGX_ORIN, JETSON_NANO
from repro.parallel import DEFAULT_EDGE_CLUSTER, Cluster, Device, ledger_delta

MB = 2**20


class TestDevice:
    def test_defaults_to_platform_ram(self):
        device = Device(platform=JETSON_NANO)
        assert device.memory_budget == JETSON_NANO.memory_bytes

    def test_owns_private_simulator(self):
        a = Device(platform=AGX_ORIN)
        b = Device(platform=AGX_ORIN)
        a.sim.add_training_step(1e9, 1e6, 10)
        assert a.elapsed > 0
        assert b.elapsed == 0.0

    def test_invalid_budget_raises(self):
        with pytest.raises(ConfigError):
            Device(platform=AGX_ORIN, memory_budget=0)


class TestCluster:
    def test_from_names(self):
        cluster = Cluster.from_names(DEFAULT_EDGE_CLUSTER, memory_budget=8 * MB)
        assert len(cluster) == 4
        assert [d.index for d in cluster] == [0, 1, 2, 3]
        assert all(d.memory_budget == 8 * MB for d in cluster)
        assert "Nano" in cluster[0].name

    def test_from_names_per_device_budgets(self):
        cluster = Cluster.from_names(["nano", "agx-orin"], memory_budget=[4 * MB, 8 * MB])
        assert [d.memory_budget for d in cluster] == [4 * MB, 8 * MB]
        with pytest.raises(ConfigError):
            Cluster.from_names(["nano", "agx-orin"], memory_budget=[4 * MB])

    def test_empty_raises(self):
        with pytest.raises(ConfigError):
            Cluster([])
        with pytest.raises(ConfigError):
            Cluster.from_names([])

    def test_unknown_platform_raises(self):
        with pytest.raises(ConfigError):
            Cluster.from_names(["tpu-v9"])

    def test_duplicate_device_object_rejected(self):
        """The same Device twice would share one ledger under two ids."""
        device = Device(platform=AGX_ORIN)
        with pytest.raises(ConfigError, match="duplicate device"):
            Cluster([device, device])

    def test_link_referencing_unknown_device_rejected(self):
        devices = [Device(platform=AGX_ORIN), Device(platform=JETSON_NANO)]
        with pytest.raises(ConfigError, match="unknown device"):
            Cluster(devices, links={(0, 2): WIFI_AC})
        devices = [Device(platform=AGX_ORIN), Device(platform=JETSON_NANO)]
        with pytest.raises(ConfigError, match="unknown device"):
            Cluster(devices, links={(-1, 0): WIFI_AC})

    def test_self_link_rejected(self):
        devices = [Device(platform=AGX_ORIN), Device(platform=JETSON_NANO)]
        with pytest.raises(ConfigError, match="itself"):
            Cluster(devices, links={(1, 1): WIFI_AC})

    def test_add_device_elastic_join(self):
        cluster = Cluster.from_names(["nano", "agx-orin"])
        newcomer = Device(platform=AGX_ORIN, memory_budget=8 * MB)
        index = cluster.add_device(newcomer)
        assert index == 2 and len(cluster) == 3
        assert cluster[2] is newcomer and newcomer.index == 2
        # Transfers to the newcomer use the default link.
        assert cluster.transfer_time(0, 2, 1e6) > 0
        with pytest.raises(ConfigError):
            cluster.add_device(newcomer)

    def test_same_device_transfer_is_free(self):
        cluster = Cluster.from_names(["nano", "agx-orin"])
        assert cluster.link_between(0, 0) is None
        assert cluster.transfer_time(1, 1, 1e9) == 0.0
        assert cluster.charge_transfer(0, 0, 1e9) == 0.0
        assert cluster[0].sim.ledger.communication == 0.0

    def test_charge_transfer_bills_sender_communication(self):
        cluster = Cluster.from_names(["nano", "agx-orin"], link=GIGABIT_ETHERNET)
        nbytes = GIGABIT_ETHERNET.bandwidth  # exactly one second of bytes
        t = cluster.charge_transfer(0, 1, nbytes)
        assert t == pytest.approx(1.0 + GIGABIT_ETHERNET.latency)
        assert cluster[0].sim.ledger.communication == pytest.approx(t)
        assert cluster[1].sim.ledger.communication == 0.0

    def test_link_overrides(self):
        slow = Link(bandwidth=1e3, latency=1.0)
        cluster = Cluster.from_names(
            ["nano", "agx-orin"], link=GIGABIT_ETHERNET, links={(0, 1): slow}
        )
        assert cluster.link_between(0, 1) is slow
        assert cluster.link_between(1, 0) is GIGABIT_ETHERNET
        assert cluster.transfer_time(0, 1, 1e3) == pytest.approx(2.0)

    def test_link_override_out_of_range_raises(self):
        with pytest.raises(ConfigError):
            Cluster.from_names(["nano"], links={(0, 5): WIFI_AC})

    def test_ledger_accounting(self):
        cluster = Cluster.from_names(["nano", "agx-orin"])
        before = cluster.ledger_snapshot()
        cluster[1].sim.add_training_step(1e9, 1e6, 10)
        cluster.charge_transfer(0, 1, 1e6)
        delta = ledger_delta(cluster.ledger_snapshot(), before)
        assert delta[0]["communication"] > 0
        assert delta[0]["compute"] == 0.0
        assert delta[1]["compute"] > 0
        merged = merge_ledger_summaries(delta)
        assert merged["total"] == pytest.approx(cluster.total_elapsed)
        assert merged["communication"] == pytest.approx(delta[0]["communication"])
