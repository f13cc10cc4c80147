"""Per-device drift detection and online cost-model refinement.

The placement optimizer prices each (block, device) pair once, up front,
with the device's nominal platform descriptor.  Real devices drift: they
throttle, pick up co-located load, or were simply mis-modelled.
perf4sight's remedy -- refine the cost model online against measurements
-- maps here to one scalar per device: the EWMA of the ratio between
*observed* step seconds (what the device ledger actually charged) and
*predicted* step seconds (what the cost model priced for that block on
that device).  A coefficient of ``1.0`` means the model is faithful; a
device whose coefficient strays beyond :data:`DRIFT_THRESHOLD` is *drifted*,
and re-running the placement search with coefficient-scaled step times
prices candidate placements against the cluster as it is now, not as it
was at planning time.
"""

from __future__ import annotations

from repro.errors import ConfigError

#: Relative departure of a coefficient from ``1.0`` that counts as drift.
DRIFT_THRESHOLD = 0.25
#: Weight of the newest observed/predicted ratio in the EWMA.
EWMA_ALPHA = 0.6
#: Observations a device needs before it can count as drifted: a single
#: noisy step never triggers a re-placement.
MIN_SAMPLES = 2


class DriftMonitor:
    """Tracks observed-vs-predicted step-time ratios per device."""

    def __init__(self, n_devices: int):
        if n_devices < 1:
            raise ConfigError("need at least one device")
        self._coefficient = [1.0] * n_devices
        self._n_observed = [0] * n_devices

    # -- observation -------------------------------------------------------
    def ensure_device(self, device: int) -> None:
        """Grow state for devices that joined after construction."""
        if device < 0:
            raise ConfigError(f"device must be non-negative, got {device}")
        while device >= len(self._coefficient):
            self._coefficient.append(1.0)
            self._n_observed.append(0)

    def observe(self, device: int, predicted_s: float, observed_s: float) -> None:
        """Feed one measured step: ledger charge vs cost-model price."""
        self.ensure_device(device)
        if predicted_s <= 0:
            raise ConfigError("predicted step time must be positive")
        if observed_s < 0:
            raise ConfigError("observed step time must be non-negative")
        ratio = observed_s / predicted_s
        if self._n_observed[device] == 0:
            self._coefficient[device] = ratio
        else:
            c = self._coefficient[device]
            self._coefficient[device] = (1 - EWMA_ALPHA) * c + EWMA_ALPHA * ratio
        self._n_observed[device] += 1

    # -- queries -----------------------------------------------------------
    def coefficient(self, device: int) -> float:
        """Refined cost multiplier for a device (``1.0`` when unobserved).

        A device with zero observed steps has given no evidence of
        drift, so the nominal model stands.
        """
        self.ensure_device(device)
        return self._coefficient[device]

    def coefficients(self) -> list[float]:
        return list(self._coefficient)

    # -- idle decay --------------------------------------------------------
    def decay_toward_unit(self, device: int, rate: float) -> None:
        """Relax a device's coefficient toward ``1.0`` by ``rate``.

        A device that hosts no blocks produces no observations, so its
        refined coefficient freezes at whatever the last measurement
        said.  That is exactly wrong for a *vacated* device: the load
        spike that justified vacating it eventually expires, but with no
        steps running there the monitor never notices, and the stale
        coefficient blacklists the device for the rest of the run.
        Callers (the adaptive runtime) decay idle devices periodically --
        ``c <- 1 + (1 - rate) * (c - 1)`` -- so an unobserved drifted
        device drifts back toward "trust the nominal model" and becomes
        a re-placement candidate again.  Observed devices are never
        decayed: a fresh measurement always beats a prior.
        """
        self.ensure_device(device)
        if not 0 <= rate <= 1:
            raise ConfigError(f"decay rate must be in [0, 1], got {rate}")
        c = self._coefficient[device]
        self._coefficient[device] = 1.0 + (1.0 - rate) * (c - 1.0)

    def drifted(self, device: int) -> bool:
        """True when the device has demonstrably departed from the model.

        Requires :data:`MIN_SAMPLES` observations: a single noisy step (or
        no steps at all) never triggers a re-placement.
        """
        self.ensure_device(device)
        if self._n_observed[device] < MIN_SAMPLES:
            return False
        return abs(self._coefficient[device] - 1.0) > DRIFT_THRESHOLD

    def any_drift(self) -> bool:
        return any(self.drifted(d) for d in range(len(self._coefficient)))
