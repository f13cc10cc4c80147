"""NeuroFlux configuration."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

from repro.core.partitioner import DEFAULT_GROUPING_THRESHOLD
from repro.errors import ConfigError

#: Fields that count something: integers >= 1.
_COUNT_FIELDS = ("batch_limit", "classic_filters")
#: Fields that must be finite real numbers.
_REAL_FIELDS = ("rho", "lr")


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass
class NeuroFluxConfig:
    """Tunables of the NeuroFlux system (paper defaults).

    The two ablation switches let the benchmarks isolate the paper's
    contributions: ``adaptive_batch=False`` degrades AB-LL to a single
    global batch size (pure AAN-LL), and ``use_cache=False`` disables
    activation caching, re-running forward passes over trained blocks.
    """

    rho: float = DEFAULT_GROUPING_THRESHOLD
    batch_limit: int = 256
    optimizer: str = "sgd-momentum"
    lr: float = 0.05
    aux_rule: str = "aan"
    classic_filters: int = 256
    sample_batches: tuple[int, ...] = (8, 16, 32, 64)
    cache_dir: str | None = None
    use_cache: bool = True
    adaptive_batch: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        for name in _COUNT_FIELDS:
            value = getattr(self, name)
            if not _is_int(value) or value < 1:
                raise ConfigError(f"{name} must be an integer >= 1, got {value!r}")
        if not _is_int(self.seed) or self.seed < 0:
            raise ConfigError(f"seed must be an integer >= 0, got {self.seed!r}")
        for name in _REAL_FIELDS:
            value = getattr(self, name)
            if (
                isinstance(value, bool)
                or not isinstance(value, numbers.Real)
                or not math.isfinite(value)
            ):
                raise ConfigError(f"{name} must be a finite number, got {value!r}")
        if self.rho < 0:
            raise ConfigError("rho must be non-negative")
        batches = self.sample_batches
        if (
            not isinstance(batches, (tuple, list))
            or not all(_is_int(b) and b >= 1 for b in batches)
            or len(set(batches)) < 2
        ):
            raise ConfigError(
                "sample_batches must hold at least two distinct integers >= 1, "
                f"got {batches!r}"
            )
        from repro.core.auxiliary import AUX_RULES

        if self.aux_rule not in AUX_RULES:
            raise ConfigError(
                f"unknown aux_rule {self.aux_rule!r}; available: {', '.join(AUX_RULES)}"
            )

    # -- serialization (the JobSpec ``neuroflux`` section) -------------------
    def to_dict(self) -> dict:
        """JSON-pure dict of every field (tuples become lists)."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = list(value) if isinstance(value, tuple) else value
        return out

    @classmethod
    def from_dict(cls, payload: dict) -> "NeuroFluxConfig":
        """Build a config from a dict, rejecting unknown keys.

        The inverse of :meth:`to_dict`: lists are coerced back to the
        tuples the dataclass declares (``sample_batches``), and any key
        that is not a config field raises :class:`ConfigError` -- a
        typoed knob in a spec file must fail loudly, not silently train
        with the default.
        """
        if not isinstance(payload, dict):
            raise ConfigError(
                f"NeuroFluxConfig payload must be a dict, got {type(payload).__name__}"
            )
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ConfigError(
                f"unknown NeuroFluxConfig key(s): {', '.join(unknown)}; "
                f"known keys: {', '.join(sorted(known))}"
            )
        kwargs = dict(payload)
        if isinstance(kwargs.get("sample_batches"), list):
            kwargs["sample_batches"] = tuple(kwargs["sample_batches"])
        return cls(**kwargs)
