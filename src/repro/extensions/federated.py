"""Federated learning on top of NeuroFlux (paper Section 8, future work).

The paper envisions NeuroFlux enabling federated learning on edge devices:
each client trains under its own memory budget, and the reduced client
training time speeds up global convergence.  This extension implements
synchronous FedAvg over NeuroFlux clients:

* every client holds a disjoint shard of the training data and a memory
  budget (possibly different per device);
* each round, clients run NeuroFlux locally from the current global
  state, then the server averages stage and auxiliary-head state dicts
  -- parameters and BatchNorm running statistics -- shard-size weighted;
* clients are the devices of one :class:`repro.parallel.cluster.Cluster`,
  and a client round trains through the controller's block loop with
  every block placed on the client's device: local work is charged to
  that device's ledger as it runs, and the model download/upload over the
  client's WAN link is booked there under ``communication``;
* round latency is the slowest device's simulated time (synchronous
  FedAvg -- the straggler sets the pace).

:meth:`FederatedNeuroFlux.run_async` drops the synchronous barrier: the
server applies client updates the moment they arrive (bounded staleness,
FedAsync-style mixing), ordered by the same discrete event clock the
adaptive cluster runtime uses -- so a straggler delays only its own
contribution, not the round.  The same fault/load schedules apply, by
the simulator's one rule: a :class:`~repro.runtime.events.DeviceSlowdown`
or :class:`~repro.runtime.events.LoadSpike` sets the client device's
``time_scale``, which scales local work where it is charged (profiling,
block loads and WAN transfers are not scaled); a
:class:`~repro.runtime.events.DeviceFailure` drops the client (and any
in-flight update) outright.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.api.callbacks import Callback, as_callback_list
from repro.api.report import Report, json_num as _num, merge_ledger_summaries
from repro.core.auxiliary import build_aux_heads
from repro.core.config import NeuroFluxConfig
from repro.core.controller import NeuroFlux
from repro.data.datasets import SyntheticImageDataset
from repro.errors import ConfigError
from repro.hw.platforms import AGX_ORIN, WAN_100MBIT, Link, Platform
from repro.models.zoo import build_model
from repro.obs.trace import active_tracer
from repro.parallel.cluster import Cluster, Device, DeviceContext, ledger_delta
from repro.training.common import evaluate_classifier


def federated_average(
    states: list[dict[str, np.ndarray]], weights: list[float]
) -> dict[str, np.ndarray]:
    """Weighted average of state dicts (FedAvg), BatchNorm running
    statistics included.  Products and sums run in float64 before the
    one cast back, so identical clients come back bit for bit."""
    if not states:
        raise ConfigError("no client states to average")
    if len(states) != len(weights):
        raise ConfigError("one weight per state required")
    total = float(sum(weights))
    if total <= 0:
        raise ConfigError("weights must sum to a positive value")
    keys = set(states[0])
    for s in states[1:]:
        if set(s) != keys:
            raise ConfigError("client states disagree on parameter names")
    out: dict[str, np.ndarray] = {}
    for key in keys:
        acc = np.zeros_like(states[0][key], dtype=np.float64)
        for state, w in zip(states, weights):
            acc += np.multiply(state[key], w / total, dtype=np.float64)
        out[key] = acc.astype(states[0][key].dtype)
    return out


@dataclass
class FederatedClient:
    """One edge device: a data shard, budget, platform and uplink."""

    client_id: int
    data: SyntheticImageDataset
    memory_budget: int
    platform: Platform = AGX_ORIN
    link: Link = WAN_100MBIT

    @property
    def n_samples(self) -> int:
        return len(self.data.x_train)


@dataclass
class FederatedRound:
    round_index: int
    sim_time_s: float
    global_accuracy: float
    client_exit_layers: list[int] = field(default_factory=list)
    client_times_s: list[float] = field(default_factory=list)
    communication_time_s: float = 0.0


def _client_ledger_metrics(reg, device_ledgers: list[dict[str, float]]) -> None:
    """One ``client_ledger_seconds_total`` counter per client and category."""
    for c, ledger in enumerate(device_ledgers):
        for category, seconds in ledger.items():
            reg.counter(
                "client_ledger_seconds_total", client=c, category=category
            ).inc(seconds)


def _device_ledgers_json(device_ledgers: list[dict[str, float]]) -> list[dict]:
    return [{k: _num(v) for k, v in ledger.items()} for ledger in device_ledgers]


@dataclass
class FederatedResult(Report):
    """What one synchronous FedAvg run produced."""

    kind = "federated"

    rounds: list[FederatedRound]
    final_accuracy: float
    #: Sum of synchronous round latencies (straggler-paced).
    total_sim_time_s: float
    #: Per-client device ledgers (cost category -> seconds, incl. total).
    device_ledgers: list[dict[str, float]] = field(default_factory=list)
    #: Highest simulated GPU high-water mark across all client runs.
    peak_memory_bytes: int = 0

    @property
    def wall_clock_s(self) -> float:
        return self.total_sim_time_s

    def ledger_summary(self) -> dict[str, float]:
        return merge_ledger_summaries(self.device_ledgers)

    def add_metrics(self, reg) -> None:
        reg.counter("rounds_total").inc(len(self.rounds))
        reg.gauge("final_accuracy").set(self.final_accuracy)
        round_seconds = reg.histogram("round_seconds")
        comm = reg.counter("communication_seconds_total")
        for r in self.rounds:
            round_seconds.observe(r.sim_time_s)
            comm.inc(r.communication_time_s)
        _client_ledger_metrics(reg, self.device_ledgers)

    def json_fields(self) -> dict:
        return {
            "n_rounds": len(self.rounds),
            "final_accuracy": _num(self.final_accuracy),
            "rounds": [
                {
                    "round": r.round_index,
                    "sim_time_s": _num(r.sim_time_s),
                    "global_accuracy": _num(r.global_accuracy),
                    "client_exit_layers": list(r.client_exit_layers),
                    "communication_time_s": _num(r.communication_time_s),
                }
                for r in self.rounds
            ],
            "device_ledgers": _device_ledgers_json(self.device_ledgers),
        }

    def summary(self) -> str:
        lines = [
            f"Federated NeuroFlux run: {len(self.rounds)} synchronous rounds",
            f"  total time: {self.total_sim_time_s:.1f}s  "
            f"final accuracy: {self.final_accuracy:.3f}",
        ]
        for r in self.rounds:
            exits = [e + 1 for e in r.client_exit_layers]
            lines.append(
                f"  round {r.round_index}: {r.sim_time_s:.1f}s  "
                f"acc {r.global_accuracy:.3f}  exits {exits}"
            )
        return "\n".join(lines)


@dataclass
class AppliedUpdate:
    """One asynchronous client update the server accepted."""

    time_s: float
    client_id: int
    staleness: int
    mix_weight: float


@dataclass
class AsyncFederatedResult(Report):
    """What one bounded-staleness asynchronous run produced."""

    kind = "federated-async"

    applied: list[AppliedUpdate]
    n_rejected: int
    final_accuracy: float
    #: Event-clock time of the last applied update.
    total_sim_time_s: float
    client_times_s: list[float] = field(default_factory=list)
    dropped_clients: list[int] = field(default_factory=list)
    #: Per-client device ledgers (cost category -> seconds, incl. total).
    device_ledgers: list[dict[str, float]] = field(default_factory=list)
    #: Highest simulated GPU high-water mark across all client runs.
    peak_memory_bytes: int = 0

    @property
    def wall_clock_s(self) -> float:
        return self.total_sim_time_s

    def ledger_summary(self) -> dict[str, float]:
        return merge_ledger_summaries(self.device_ledgers)

    @property
    def n_applied(self) -> int:
        return len(self.applied)

    @property
    def mean_staleness(self) -> float:
        if not self.applied:
            return float("nan")
        return sum(u.staleness for u in self.applied) / len(self.applied)

    def add_metrics(self, reg) -> None:
        reg.counter("updates_applied_total").inc(self.n_applied)
        reg.counter("updates_rejected_total").inc(self.n_rejected)
        reg.counter("clients_dropped_total").inc(len(self.dropped_clients))
        reg.gauge("final_accuracy").set(self.final_accuracy)
        reg.gauge("mean_staleness").set(self.mean_staleness)
        staleness = reg.histogram("update_staleness")
        for update in self.applied:
            staleness.observe(update.staleness)
        _client_ledger_metrics(reg, self.device_ledgers)

    def json_fields(self) -> dict:
        return {
            "n_applied": self.n_applied,
            "n_rejected": self.n_rejected,
            "mean_staleness": _num(self.mean_staleness),
            "final_accuracy": _num(self.final_accuracy),
            "dropped_clients": list(self.dropped_clients),
            "client_times_s": [_num(t) for t in self.client_times_s],
            "device_ledgers": _device_ledgers_json(self.device_ledgers),
        }

    def summary(self) -> str:
        lines = [
            "Federated NeuroFlux run (asynchronous, bounded staleness): "
            f"{self.n_applied} updates applied, {self.n_rejected} rejected",
            f"  total time: {self.total_sim_time_s:.1f}s  "
            f"final accuracy: {self.final_accuracy:.3f}  "
            f"mean staleness: {self.mean_staleness:.2f}",
        ]
        if self.dropped_clients:
            lines.append(f"  dropped clients: {self.dropped_clients}")
        return "\n".join(lines)


def shard_dataset(
    data: SyntheticImageDataset, n_clients: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Split the training set into contiguous, near-equal shards."""
    if n_clients < 1:
        raise ConfigError("need at least one client")
    xs = np.array_split(data.x_train, n_clients)
    ys = np.array_split(data.y_train, n_clients)
    return list(zip(xs, ys))


class FederatedNeuroFlux:
    """Synchronous FedAvg where every client trains with NeuroFlux."""

    def __init__(
        self,
        model_name: str,
        clients: list[FederatedClient],
        eval_data: SyntheticImageDataset,
        model_kwargs: dict | None = None,
        config: NeuroFluxConfig | None = None,
        seed: int = 0,
    ):
        if not clients:
            raise ConfigError("need at least one client")
        self.model_name = model_name
        self.clients = clients
        self.eval_data = eval_data
        self.model_kwargs = model_kwargs or {}
        self.config = config if config is not None else NeuroFluxConfig()
        self.seed = seed
        self._global_model = self._build_model()
        self._global_state = self._global_model.state_dict()
        # NeuroFlux classifies through auxiliary heads (the model's own
        # head is never trained), so the heads are federated state too.
        self._global_aux = build_aux_heads(
            self._global_model,
            rule=self.config.aux_rule,
            classic_filters=self.config.classic_filters,
            seed=self.seed,
        )
        self._global_aux_states = [h.state_dict() for h in self._global_aux]
        # The client fleet as a cluster: one device per client, so every
        # client's compute and communication lands in its own ledger.
        # The ledgers accumulate for the life of the federation (another
        # call continues training the same global model); each call
        # reports what it charged, against a snapshot taken as it starts.
        self.cluster = Cluster(
            [
                Device(platform=c.platform, memory_budget=c.memory_budget)
                for c in clients
            ]
        )

    def _build_model(self):
        return build_model(self.model_name, seed=self.seed, **self.model_kwargs)

    def _update_bytes(self) -> int:
        """Bytes of one full model+heads update (download or upload):
        every ``state_dict`` entry, BatchNorm running statistics
        included."""
        nbytes = sum(a.nbytes for a in self._global_state.values())
        for state in self._global_aux_states:
            nbytes += sum(a.nbytes for a in state.values())
        return nbytes

    def run(
        self,
        rounds: int,
        local_epochs: int = 1,
        callbacks: Callback | list[Callback] | None = None,
    ) -> FederatedResult:
        if rounds < 1:
            raise ConfigError("rounds must be >= 1")
        cbs = as_callback_list(callbacks)
        base_ledgers = self.cluster.ledger_snapshot()
        # Each client round is a span on its device clock (track
        # ``client{id}``), around the charge spans its block loop puts on
        # ``dev{id}``; the server's round spans ride the synchronous round
        # clock (straggler-paced).
        tracer = active_tracer()
        history: list[FederatedRound] = []
        total_time = 0.0
        peak = 0
        for round_idx in range(rounds):
            states = []
            aux_states: list[list[dict[str, np.ndarray]]] = []
            weights = []
            times = []
            exit_layers = []
            round_comm = 0.0
            for client, device in zip(self.clients, self.cluster):
                t0 = device.sim.elapsed
                state, client_aux, exit_layer, comm, client_peak = (
                    self._run_client_once(client, device, local_epochs)
                )
                peak = max(peak, client_peak)
                round_comm += comm
                states.append(state)
                aux_states.append(client_aux)
                weights.append(float(client.n_samples))
                times.append(device.sim.elapsed - t0)
                exit_layers.append(exit_layer)
                if tracer is not None:
                    tracer.add_span(
                        f"round{round_idx}", "train",
                        f"client{client.client_id}", t0, device.sim.elapsed,
                        attrs={"exit_layer": exit_layer,
                               "comm_s": round(comm, 9)},
                    )
            self._global_state = federated_average(states, weights)
            self._global_model.load_state_dict(self._global_state)
            self._global_aux_states = [
                federated_average([c[i] for c in aux_states], weights)
                for i in range(len(self._global_aux))
            ]
            for head, state in zip(self._global_aux, self._global_aux_states):
                head.load_state_dict(state)
            acc = self._global_exit_accuracy(exit_layers)
            # Synchronous round: the straggler (slowest device ledger
            # delta, compute + communication) sets the round latency.
            round_time = max(times)
            total_time += round_time
            if tracer is not None:
                tracer.add_span(
                    f"round{round_idx}", "round", "server",
                    total_time - round_time, total_time,
                    attrs={"accuracy": round(acc, 6),
                           "n_clients": len(times)},
                )
            history.append(
                FederatedRound(
                    round_idx,
                    round_time,
                    acc,
                    exit_layers,
                    client_times_s=times,
                    communication_time_s=round_comm,
                )
            )
            # Federated rounds are the epoch analogue on the unified
            # callback protocol: one global-model update per round.
            cbs.on_epoch_end(
                round_idx,
                total_time,
                {
                    "accuracy": acc,
                    "round_time_s": round_time,
                    "communication_s": round_comm,
                },
            )
        return FederatedResult(
            rounds=history,
            final_accuracy=history[-1].global_accuracy,
            total_sim_time_s=total_time,
            device_ledgers=ledger_delta(self.cluster.ledger_snapshot(), base_ledgers),
            peak_memory_bytes=peak,
        )

    def _run_client_once(
        self, client: FederatedClient, device: Device, local_epochs: int
    ) -> tuple[dict[str, np.ndarray], list[dict[str, np.ndarray]], int, float, int]:
        """One local round on one client, charged to its device as it runs.

        Downloads the current global state, trains NeuroFlux through the
        controller's block loop with every block placed on ``device`` of
        the federation's cluster, uploads the update.  The client charges
        that device's ledger directly (and, when tracing, its ``dev{index}``
        track), so faults follow the simulator's one rule: the device's
        ``time_scale`` scales local work where it is charged -- a
        throttled client trains slower -- while profiling, block loads
        and the WAN transfers are not scaled.  Returns ``(model_state,
        aux_states, exit_layer, comm_seconds, peak_memory_bytes)``.
        """
        comm = device.sim.add_communication(self._update_bytes(), client.link)
        model = self._build_model()
        model.load_state_dict(self._global_state)
        nf = NeuroFlux(
            model,
            client.data,
            memory_budget=client.memory_budget,
            platform=client.platform,
            config=self.config,
        )
        for head, state in zip(nf.aux_heads, self._global_aux_states):
            head.load_state_dict(state)
        plan = nf.plan()
        ctx = DeviceContext(self.cluster, [device.index] * len(plan[0]))
        report = nf._train_blocks(local_epochs, None, ctx, plan)
        comm += device.sim.add_communication(self._update_bytes(), client.link)
        return (
            model.state_dict(),
            [h.state_dict() for h in nf.aux_heads],
            report.exit_layer,
            comm,
            report.result.peak_memory_bytes,
        )

    def run_async(
        self,
        rounds: int | None = None,
        local_epochs: int = 1,
        max_staleness: int = 2,
        base_mix: float = 0.5,
        duration_s: float | None = None,
        events=None,
        callbacks: Callback | list[Callback] | None = None,
    ) -> AsyncFederatedResult:
        """Asynchronous bounded-staleness federated rounds (no barrier).

        Clients train back to back on their own device clocks; the server
        applies each update the moment it lands, ordered by the runtime's
        discrete event clock.  An update that trained against a global
        version more than ``max_staleness`` applications old is rejected
        (the work is wasted -- the price of being too stale); accepted
        updates mix into the global state FedAsync-style with weight
        ``base_mix / (1 + staleness)``.

        Stop conditions: each client runs at most ``rounds`` local rounds
        (``None`` = unbounded) and starts no new round after
        ``duration_s`` simulated seconds; at least one bound is required.
        Durations, event times and every reported time are on this
        call's clock -- each device's time since the call began -- so a
        federation that already trained runs the same way again.

        ``events`` (an :class:`~repro.runtime.events.EventSchedule`) maps
        device indices to clients: a slowdown/spike throttles the
        client's local work, a failure drops the client -- and any
        in-flight update -- for good.  Events are sampled at *round*
        granularity (the federation only observes clients when a round
        starts or an update lands): a perturbation starting mid-round
        takes effect from the client's next round, and a spike fully
        contained inside one round is invisible -- unlike the cluster
        runtime, which samples per micro-batch.  Join events are not
        meaningful here (a client is a data shard, not just hardware)
        and are rejected.  The schedule applies only within this call:
        every device leaves it at its call-start ``time_scale``, so a
        permanent slowdown does not throttle the federation's next call.
        """
        from repro.runtime.events import DeviceJoin, EventClock, SchedulePlayer

        if rounds is None and duration_s is None:
            raise ConfigError("need a stop condition: rounds and/or duration_s")
        if rounds is not None and rounds < 1:
            raise ConfigError("rounds must be >= 1")
        if duration_s is not None and duration_s <= 0:
            raise ConfigError("duration_s must be positive")
        if max_staleness < 0:
            raise ConfigError("max_staleness must be >= 0")
        if not 0 < base_mix <= 1:
            raise ConfigError("base_mix must be in (0, 1]")
        for event in events or ():
            if isinstance(event, DeviceJoin):
                raise ConfigError(
                    "DeviceJoin events are not supported for federated "
                    "clients (a client is a data shard, not just hardware)"
                )
            if event.device >= len(self.clients):
                raise ConfigError(
                    f"event targets device {event.device}, but there are "
                    f"only {len(self.clients)} clients"
                )
        cbs = as_callback_list(callbacks)
        base_ledgers = self.cluster.ledger_snapshot()
        start = [ledger["total"] for ledger in base_ledgers]

        def clock(c: int) -> float:
            return self.cluster[c].sim.elapsed - start[c]

        # Client spans ride each device's own clock, where that device's
        # charge spans are; server-side apply/reject decisions are
        # instants on the call's event clock.
        tracer = active_tracer()
        # The runtime's schedule player owns the event semantics (window
        # expiry, scale combination, failure dedup); here a "device" is a
        # client and failure means the client drops out of the federation.
        player = SchedulePlayer(events)
        failed = player.failed

        def advance_events(now: float) -> None:
            for event in player.due(now):
                cbs.on_event(event, now)
            scales = player.scales(now)
            for c, device in enumerate(self.cluster):
                if c not in failed:
                    device.sim.time_scale = scales.get(c, 1.0)

        n = len(self.clients)
        rounds_left = [rounds if rounds is not None else -1] * n
        pending = EventClock()
        version = 0
        applied: list[AppliedUpdate] = []
        n_rejected = 0
        exit_layers: list[int] = []
        last_applied_s = 0.0
        peak = 0

        scales_at_start = [device.sim.time_scale for device in self.cluster]
        try:
            while True:
                runnable = [
                    c
                    for c in range(n)
                    if c not in failed
                    and rounds_left[c] != 0
                    and (duration_s is None or clock(c) < duration_s)
                ]
                next_start = min((clock(c), c) for c in runnable) if runnable else None
                next_done = pending.peek_time()
                if next_start is None and next_done is None:
                    break
                if next_done is not None and (
                    next_start is None or next_done <= next_start[0]
                ):
                    t, payload = pending.pop()
                    client_id, v0, state, aux_states, exit_layer = payload
                    advance_events(t)
                    if client_id in failed:
                        continue  # the update died with the client
                    staleness = version - v0
                    if staleness > max_staleness:
                        n_rejected += 1
                        if tracer is not None:
                            tracer.instant(
                                f"reject-stale-client{client_id}", "round",
                                "server", t, {"staleness": staleness},
                            )
                        continue
                    alpha = base_mix / (1 + staleness)
                    self._global_state = federated_average(
                        [self._global_state, state], [1.0 - alpha, alpha]
                    )
                    self._global_aux_states = [
                        federated_average([g, u], [1.0 - alpha, alpha])
                        for g, u in zip(self._global_aux_states, aux_states)
                    ]
                    version += 1
                    applied.append(AppliedUpdate(t, client_id, staleness, alpha))
                    if tracer is not None:
                        tracer.instant(
                            f"apply-client{client_id}", "round", "server", t,
                            {"staleness": staleness,
                             "mix_weight": round(alpha, 6)},
                        )
                    # Each applied update is one global-model step: the epoch
                    # analogue on the unified callback protocol.
                    cbs.on_epoch_end(
                        len(applied) - 1,
                        t,
                        {
                            "client": client_id,
                            "staleness": staleness,
                            "mix_weight": alpha,
                        },
                    )
                    # Only updates that actually entered the global model vote
                    # on the consensus exit (rejected/dropped rounds never
                    # influenced the weights being evaluated).
                    exit_layers.append(exit_layer)
                    last_applied_s = max(last_applied_s, t)
                else:
                    t0, client_id = next_start
                    advance_events(t0)
                    if client_id in failed:
                        continue
                    client = self.clients[client_id]
                    device = self.cluster[client_id]
                    v0 = version
                    device_t0 = device.sim.elapsed
                    state, aux_states, exit_layer, _, client_peak = (
                        self._run_client_once(client, device, local_epochs)
                    )
                    peak = max(peak, client_peak)
                    if tracer is not None:
                        tracer.add_span(
                            "local-round", "train", f"client{client_id}",
                            device_t0, device.sim.elapsed,
                            attrs={"version": v0, "exit_layer": exit_layer},
                        )
                    if rounds_left[client_id] > 0:
                        rounds_left[client_id] -= 1
                    pending.push(
                        clock(client_id),
                        (client_id, v0, state, aux_states, exit_layer),
                    )
        finally:
            for device, scale in zip(self.cluster, scales_at_start):
                device.sim.time_scale = scale

        self._global_model.load_state_dict(self._global_state)
        for head, state in zip(self._global_aux, self._global_aux_states):
            head.load_state_dict(state)
        accuracy = self._global_exit_accuracy(
            exit_layers if exit_layers else [len(self._global_aux) - 1]
        )
        return AsyncFederatedResult(
            applied=applied,
            n_rejected=n_rejected,
            final_accuracy=accuracy,
            total_sim_time_s=last_applied_s,
            client_times_s=[clock(c) for c in range(n)],
            dropped_clients=sorted(failed),
            device_ledgers=ledger_delta(self.cluster.ledger_snapshot(), base_ledgers),
            peak_memory_bytes=peak,
        )

    def _global_exit_accuracy(self, client_exits: list[int]) -> float:
        """Test accuracy of the global model through the consensus exit.

        The exit layer is the deepest layer any client selected (a shallow
        client exit still has trained weights beneath it).
        """
        exit_layer = max(client_exits)
        self._global_model.eval()
        aux = self._global_aux[exit_layer]
        aux.eval()

        def forward(x: np.ndarray) -> np.ndarray:
            feats = self._global_model.forward_features(x, upto=exit_layer + 1)
            return aux.forward(feats)

        return evaluate_classifier(
            forward, self.eval_data.x_test, self.eval_data.y_test
        )
