"""Simulated multi-device cluster for pipeline-parallel training.

NeuroFlux blocks have only a forward activation dependency (local losses,
no global backward), so they map cleanly onto a chain of devices.  This
module models the substrate: a set of :class:`~repro.hw.platforms.Platform`
devices, each with its own :class:`~repro.hw.simulator.ExecutionSimulator`
(and therefore its own :class:`~repro.hw.simulator.TimeLedger`), connected
by :class:`~repro.hw.platforms.Link` descriptors.  Transfers between
devices are charged to the sender's ``communication`` ledger category.
:class:`DeviceContext` places one training run on a cluster: the single
answer to "which simulator and which simulated GPU host this block".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.api.report import merge_ledger_summaries
from repro.errors import ConfigError
from repro.hw.platforms import GIGABIT_ETHERNET, Link, Platform, get_platform
from repro.hw.simulator import ExecutionSimulator, TimeLedger
from repro.memory.tracker import SimulatedGpu


@dataclass
class Device:
    """One compute node of a simulated cluster.

    Attributes:
        platform: hardware descriptor (peak FLOPs, bandwidths, overheads).
        memory_budget: bytes of training memory available on this device;
            defaults to the platform's RAM.  The placement optimizer keeps
            the resident blocks of a device under this budget.
        index: position within the owning cluster (assigned by ``Cluster``).
        sim: the device's private execution simulator / time ledger.
    """

    platform: Platform
    memory_budget: int | None = None
    index: int = -1
    sim: ExecutionSimulator = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.memory_budget is None:
            self.memory_budget = self.platform.memory_bytes
        if self.memory_budget <= 0:
            raise ConfigError("device memory budget must be positive")
        self.sim = ExecutionSimulator(self.platform)

    @property
    def name(self) -> str:
        return f"dev{self.index}:{self.platform.name}"

    @property
    def elapsed(self) -> float:
        return self.sim.elapsed


class Cluster:
    """A set of devices plus the links between them.

    ``links`` overrides the default link for specific directed pairs
    ``(src_index, dst_index)``; every other pair uses ``link``.  A transfer
    within one device is free (no link is crossed).
    """

    def __init__(
        self,
        devices: list[Device],
        link: Link = GIGABIT_ETHERNET,
        links: dict[tuple[int, int], Link] | None = None,
    ):
        if not devices:
            raise ConfigError("a cluster needs at least one device")
        self.devices = list(devices)
        seen: set[int] = set()
        for i, device in enumerate(self.devices):
            if id(device) in seen:
                raise ConfigError(
                    f"duplicate device at index {i}: the same Device object "
                    "appears twice (each device needs its own ledger)"
                )
            seen.add(id(device))
            device.index = i
        self.default_link = link
        self.links = dict(links) if links else {}
        n = len(self.devices)
        for src, dst in self.links:
            if src == dst:
                raise ConfigError(
                    f"link ({src}, {dst}) connects a device to itself; "
                    "intra-device transfers are free and take no link"
                )
            if not (0 <= src < n and 0 <= dst < n):
                raise ConfigError(
                    f"link ({src}, {dst}) references an unknown device "
                    f"(cluster has {n} devices)"
                )

    @classmethod
    def from_names(
        cls,
        names: list[str] | tuple[str, ...],
        memory_budget: int | list[int] | None = None,
        link: Link = GIGABIT_ETHERNET,
        links: dict[tuple[int, int], Link] | None = None,
    ) -> "Cluster":
        """Build a cluster from platform short names (``agx-orin`` etc.).

        ``memory_budget`` applies to every device when an int, per device
        when a list, and falls back to platform RAM when ``None``.
        """
        if not names:
            raise ConfigError("a cluster needs at least one device")
        if isinstance(memory_budget, (list, tuple)):
            if len(memory_budget) != len(names):
                raise ConfigError(
                    "one memory budget per device required: "
                    f"{len(memory_budget)} vs {len(names)}"
                )
            budgets = list(memory_budget)
        else:
            budgets = [memory_budget] * len(names)
        devices = [
            Device(platform=get_platform(name), memory_budget=budget)
            for name, budget in zip(names, budgets)
        ]
        return cls(devices, link=link, links=links)

    def add_device(self, device: Device) -> int:
        """Admit a device into a live cluster (elastic join).

        Returns the new device's index.  Existing links are untouched;
        transfers to or from the newcomer use the cluster default link.
        """
        if any(d is device for d in self.devices):
            raise ConfigError("device is already a member of this cluster")
        device.index = len(self.devices)
        self.devices.append(device)
        return device.index

    # -- container protocol --------------------------------------------------
    def __len__(self) -> int:
        return len(self.devices)

    def __iter__(self) -> Iterator[Device]:
        return iter(self.devices)

    def __getitem__(self, index: int) -> Device:
        return self.devices[index]

    # -- communication -------------------------------------------------------
    def link_between(self, src: int, dst: int) -> Link | None:
        """The link a ``src -> dst`` transfer crosses (``None`` if local)."""
        if src == dst:
            return None
        return self.links.get((src, dst), self.default_link)

    def transfer_time(self, src: int, dst: int, nbytes: float) -> float:
        """Seconds to move ``nbytes`` from device ``src`` to ``dst``."""
        link = self.link_between(src, dst)
        if link is None:
            return 0.0
        return link.transfer_time(nbytes)

    def charge_transfer(self, src: int, dst: int, nbytes: float) -> float:
        """Charge a transfer to the sender's ``communication`` ledger."""
        link = self.link_between(src, dst)
        if link is None:
            return 0.0
        return self.devices[src].sim.add_communication(nbytes, link)

    # -- accounting ----------------------------------------------------------
    @property
    def total_elapsed(self) -> float:
        """Sum of every device's ledger total (serialized-work clock)."""
        return sum(d.sim.elapsed for d in self.devices)

    def ledger_snapshot(self) -> list[dict[str, float]]:
        """Per-device ledger dicts, for before/after deltas."""
        return [d.sim.ledger.as_dict() for d in self.devices]


#: The benchmark/CLI default: one Nano, two mid-range NXes, one big Orin.
#: Deliberately not sorted by speed -- device enumeration order carries no
#: meaning, which is exactly what naive round-robin placement gets wrong.
DEFAULT_EDGE_CLUSTER = ("nano", "xavier-nx", "xavier-nx", "agx-orin")


def ledger_delta(
    after: list[dict[str, float]], before: list[dict[str, float]]
) -> list[dict[str, float]]:
    """Per-device ledger difference (what one run charged to a cluster)."""
    if len(after) != len(before):
        raise ConfigError("snapshot length mismatch")
    return [
        {key: a[key] - b.get(key, 0.0) for key in a}
        for a, b in zip(after, before)
    ]


class DeviceContext:
    """One training run placed on a cluster: block -> simulator / GPU.

    Every schedule resolves devices through this class.  The dataflow
    (and therefore every weight update) never depends on it; only the
    accounting does: each block charges its own device's simulator,
    activations crossing devices charge the link to the sender's
    ``communication`` category, and the run's ledgers are the cluster's
    ledgers minus their state at construction.  On a one-device cluster
    all of that is exact identity (``x - 0.0``, ``0.0 + x``, no link), so
    :meth:`NeuroFlux.run` is simply a cluster of one.
    """

    def __init__(self, cluster: Cluster, placement: list[int], runtime=None):
        self.cluster = cluster
        #: Live block -> device map.  An adaptive runtime rewrites it
        #: between batches (failures, drift), so devices are resolved
        #: through :meth:`sim_for_block` at use time, never cached.
        self.placement = list(placement)
        self.runtime = runtime
        self.gpus = [
            SimulatedGpu(budget_bytes=device.memory_budget) for device in cluster
        ]
        self.comm_bytes = 0
        #: Devices that ever hosted a block's work: utilization cannot
        #: sample the final placement, because a device that trained
        #: early blocks and then died still shaped the makespan.
        self.ever_hosted: set[int] = set()
        self._base_elapsed = cluster.total_elapsed
        self._base_ledgers = cluster.ledger_snapshot()
        self._handles: dict[int, tuple[SimulatedGpu, int, int]] = {}

    def sim_for_block(self, block_index: int) -> ExecutionSimulator:
        self.ever_hosted.add(self.placement[block_index])
        sim = self.cluster[self.placement[block_index]].sim
        if sim.tracer is not None:
            # A traced device names its spans after the block it works on.
            sim.trace_scope = f"block{block_index}"
        return sim

    @property
    def profiling_sim(self) -> ExecutionSimulator:
        """Profiling runs where the first block will train."""
        return self.cluster[self.placement[0]].sim

    # -- simulated GPU residency -------------------------------------------
    def alloc_block(self, block_index: int, nbytes: int) -> None:
        gpu = self.gpus[self.placement[block_index]]
        self._handles[block_index] = (
            gpu, gpu.alloc(nbytes, f"block{block_index}"), nbytes
        )

    def free_block(self, block_index: int) -> int:
        """Release a block's residency; returns the bytes it held."""
        gpu, handle, nbytes = self._handles.pop(block_index)
        gpu.free(handle)
        return nbytes

    def add_device(self, device: Device) -> int:
        """Admit a device mid-run (elastic join); returns its index."""
        self.gpus.append(SimulatedGpu(budget_bytes=device.memory_budget))
        return self.cluster.add_device(device)

    def release(self) -> None:
        """End of run: free whatever is still resident."""
        for block_index in list(self._handles):
            self.free_block(block_index)

    def attach_tracer(self, tracer) -> None:
        """Route every device charge to ``tracer``, one track per device."""
        for d, device in enumerate(self.cluster):
            device.sim.attach_tracer(tracer, f"dev{d}")

    def detach_tracer(self) -> None:
        for device in self.cluster:
            device.sim.detach_tracer()

    # -- accounting ----------------------------------------------------------
    def handoff(self, from_block: int, to_block: int, nbytes: int) -> float:
        """Ship cached activations to the next block's device."""
        src, dst = self.placement[from_block], self.placement[to_block]
        if src != dst:
            self.comm_bytes += int(nbytes)
        return self.cluster.charge_transfer(src, dst, nbytes)

    @property
    def elapsed(self) -> float:
        """Serialized-work clock of this run (sum over device ledgers)."""
        return self.cluster.total_elapsed - self._base_elapsed

    def device_ledgers(self) -> list[dict[str, float]]:
        """What this run charged to each device (joined devices started
        from an all-zero ledger)."""
        joined = len(self.cluster) - len(self._base_ledgers)
        return ledger_delta(
            self.cluster.ledger_snapshot(), self._base_ledgers + [{}] * joined
        )

    def merged_ledger(self) -> TimeLedger:
        merged = merge_ledger_summaries(self.device_ledgers())
        del merged["total"]
        return TimeLedger(**merged)

    @property
    def peak_memory(self) -> int:
        return max(gpu.peak for gpu in self.gpus)
