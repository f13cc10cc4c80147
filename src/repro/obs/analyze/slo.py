"""Declarative SLO rules and BENCH-trajectory regression gates.

An SLO spec is a JSON list of rules, each naming a metric *path* into a
JSON document (a unified Report, a metrics snapshot, a BENCH payload --
any JSON object) and exactly one bound::

    {"slo": [
        {"name": "no-lost-requests", "metric": "accounting.unaccounted",
         "equals": 0},
        {"name": "tail-latency", "metric": "p99_latency_s", "max": 0.02},
        {"name": "device-utilization", "metric": "utilization", "min": 0.5}
    ]}

Paths are dotted; when a whole dotted string is itself a key at the
current level (metric-registry keys like ``ledger_seconds_total
{category="compute"}``) the exact match wins before splitting.  Every
violation is *named*, so a failing gate says which promise broke, with
the observed value and the bound -- and a missing metric is itself a
violation, not a silent pass.

The BENCH trajectory gate guards the committed ``BENCH_*.json`` files:
headline *ratios* (speedups, p99 improvements -- bigger is better) must
not regress below ``floor`` x their previous value, and a claim that
was ``true`` must stay ``true``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.api.report import resolve_path
from repro.errors import ConfigError

#: Bound keys a rule may carry (exactly one).
_OPS = ("max", "min", "equals")

_MISSING = object()


@dataclass(frozen=True)
class SloRule:
    """One named threshold over one metric path."""

    name: str
    metric: str
    op: str
    bound: object

    @classmethod
    def from_dict(cls, raw: dict, index: int) -> "SloRule":
        if not isinstance(raw, dict):
            raise ConfigError(f"SLO rule #{index} must be an object")
        metric = raw.get("metric")
        if not metric or not isinstance(metric, str):
            raise ConfigError(f"SLO rule #{index} needs a 'metric' path")
        ops = [op for op in _OPS if op in raw]
        if len(ops) != 1:
            raise ConfigError(
                f"SLO rule #{index} ({metric}) needs exactly one bound of "
                f"{_OPS}, got {ops or 'none'}"
            )
        op = ops[0]
        name = raw.get("name") or f"{metric}-{op}"
        return cls(name=name, metric=metric, op=op, bound=raw[op])

    def check(self, value) -> str | None:
        """None when satisfied, else a human-readable violation reason."""
        if value is _MISSING:
            return f"metric {self.metric!r} not found in the document"
        if self.op == "equals":
            if value != self.bound:
                return f"{self.metric} == {value!r}, required {self.bound!r}"
            return None
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            return (
                f"{self.metric} is {value!r}, not a number "
                f"(cannot apply {self.op} {self.bound})"
            )
        if self.op == "max" and value > float(self.bound):
            return f"{self.metric} == {value:g} exceeds max {float(self.bound):g}"
        if self.op == "min" and value < float(self.bound):
            return f"{self.metric} == {value:g} below min {float(self.bound):g}"
        return None


@dataclass
class SloSpec:
    """A parsed list of rules."""

    rules: list[SloRule] = field(default_factory=list)

    @classmethod
    def from_dict(cls, payload) -> "SloSpec":
        if isinstance(payload, dict):
            raw_rules = payload.get("slo")
            if raw_rules is None:
                raise ConfigError('an SLO spec object needs an "slo" list')
        else:
            raw_rules = payload
        if not isinstance(raw_rules, list) or not raw_rules:
            raise ConfigError("an SLO spec needs a non-empty rule list")
        return cls(rules=[
            SloRule.from_dict(raw, i) for i, raw in enumerate(raw_rules)
        ])

    @classmethod
    def from_json_file(cls, path: str) -> "SloSpec":
        with open(path) as fh:
            try:
                payload = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{path}: not JSON ({exc})") from None
        return cls.from_dict(payload)


@dataclass
class SloResult:
    """Outcome of evaluating one spec against one document."""

    n_rules: int = 0
    violations: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        return {
            "ok": self.ok,
            "n_rules": self.n_rules,
            "n_violations": len(self.violations),
            "violations": self.violations,
        }

    def table(self) -> str:
        if self.ok:
            return f"slo: ok ({self.n_rules} rule(s) hold)"
        lines = [
            f"slo: FAILED ({len(self.violations)} of {self.n_rules} rule(s))"
        ]
        for v in self.violations:
            lines.append(f"  [{v['name']}] {v['reason']}")
        return "\n".join(lines)


def evaluate_slo(spec: SloSpec, doc: dict) -> SloResult:
    """Check every rule; collect named violations."""
    result = SloResult(n_rules=len(spec.rules))
    for rule in spec.rules:
        value = resolve_path(doc, rule.metric, missing=_MISSING)
        reason = rule.check(value)
        if reason is not None:
            result.violations.append({
                "name": rule.name,
                "metric": rule.metric,
                "op": rule.op,
                "bound": rule.bound,
                "value": None if value is _MISSING else value,
                "reason": reason,
            })
    return result


# -- BENCH trajectory --------------------------------------------------------

#: Leaf-name suffixes that mark a bigger-is-better headline ratio.
HEADLINE_SUFFIXES = ("_speedup", "_improvement", "_vs_", "speedup")


def extract_bench_headlines(payload: dict) -> dict[str, float]:
    """Flatten a BENCH payload to its headline ratios and claims.

    Headlines are (a) every numeric leaf under a ``speedups`` object,
    (b) any numeric leaf whose key contains a speedup/improvement
    marker, and (c) every boolean under a ``claims`` object.  Timings
    and environment records are deliberately ignored: wall-clock noise
    must not fail a trajectory gate, claims and modeled ratios must.
    """
    out: dict[str, float] = {}

    def walk(node, path: str, in_headline_group: bool) -> None:
        if isinstance(node, dict):
            for key, value in node.items():
                sub = f"{path}.{key}" if path else str(key)
                group = in_headline_group or key in ("speedups", "claims")
                walk(value, sub, group)
            return
        if isinstance(node, bool):
            if in_headline_group or ".claims." in f".{path}":
                out[path] = node
            return
        if isinstance(node, (int, float)):
            leaf = path.rsplit(".", 1)[-1]
            if in_headline_group or any(m in leaf for m in HEADLINE_SUFFIXES):
                out[path] = float(node)

    walk(payload, "", False)
    return out


def compare_bench_headlines(
    baseline: dict, current: dict, floor: float = 0.9,
    source: str = "BENCH",
) -> list[dict]:
    """Named violations where ``current`` regresses vs ``baseline``.

    A numeric headline must stay >= ``floor`` x its previous value; a
    claim that held must keep holding.  Headlines the baseline lacks are
    new and pass; headlines the current payload dropped are violations
    (a silently deleted claim is a regression, not a cleanup).
    """
    base = extract_bench_headlines(baseline)
    cur = extract_bench_headlines(current)
    violations: list[dict] = []
    for path, old in sorted(base.items()):
        if path not in cur:
            violations.append({
                "name": f"{source}:{path}",
                "reason": f"headline {path!r} disappeared "
                          f"(was {old!r})",
            })
            continue
        new = cur[path]
        if isinstance(old, bool):
            if old and not new:
                violations.append({
                    "name": f"{source}:{path}",
                    "reason": f"claim {path!r} regressed true -> false",
                })
            continue
        if old > 0 and float(new) < floor * float(old):
            violations.append({
                "name": f"{source}:{path}",
                "reason": (
                    f"{path} regressed to {float(new):g} "
                    f"< {floor:g} x previous {float(old):g}"
                ),
            })
    return violations
