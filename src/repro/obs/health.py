"""Declarative SLO rules evaluated over an event log.

Rule grammar (DESIGN.md sec. 7) — one rule per line, ``#`` comments::

    <name>: <indicator> <op> <warn>/<fail>

where ``op`` is ``<=`` (budget: exceeding warns/fails) or ``>=`` (floor:
undershooting warns/fails), ``warn`` is the threshold at which the verdict
becomes ``warn`` and ``fail`` the one at which it becomes ``fail``.
Example: ``drop-rate: drop_rate <= 0.02/0.10`` passes at 1% dropped
samples, warns at 5%, fails at 15%.

Indicators are computed from the event stream by
:func:`compute_indicators`:

``drop_rate``
    dropped samples (``correlate.drop.* + annotate.drop.* +
    profile.drop.*`` totals from the last metrics snapshot) over total
    unwound samples.
``fallback_rate``
    ``fallback_taken`` events per started profile-producing run.
``checksum_match_rate``
    annotated / (annotated + checksum-rejected) over ``profile_applied``
    events.
``min_trim_overlap``
    minimum ``quality.trim_overlap`` over all generated-profile manifests.
``bench_regression``
    worst fractional slowdown recorded by ``bench_point`` events that carry
    a baseline.
``fault_events``
    total corruption events reported by injectors (useful for asserting a
    clean pipeline in CI).
``lint_findings``
    total flow-consistency violations reported by ``repro lint`` runs
    (``lint_summary`` events); a clean lint contributes 0, no lint run at
    all skips the rule.
``profile_freshness``
    mean fraction of fleet services running on a *fresh* context profile
    (binary identity matches, age within the freshness window), averaged
    over every ``fleet_status`` rollup of the run.
``task_retry_rate``
    fleet collection-task retries per completed task, from the final
    ``fleet_status`` totals.
``orphan_loss``
    orphaned fleet tasks that were neither re-queued by crash recovery nor
    explicitly retired as retry-budget-exhausted — any nonzero value means
    a task vanished, the failure mode the supervisor exists to prevent.

An indicator with no data evaluates to ``skip`` — a rule can only pass on
evidence, never on absence of it, and a skipped rule never fails a build.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional

from .events import Event

PASS, WARN, FAIL, SKIP = "pass", "warn", "fail", "skip"

#: Verdict severity order, for aggregation.
_SEVERITY = {SKIP: 0, PASS: 1, WARN: 2, FAIL: 3}


class SLORule:
    """One named budget (``<=``) or floor (``>=``) on an indicator."""

    def __init__(self, name: str, indicator: str, op: str,
                 warn: float, fail: float, description: str = ""):
        if op not in ("<=", ">="):
            raise ValueError(f"SLO op must be '<=' or '>=', got {op!r}")
        if op == "<=" and fail < warn:
            raise ValueError(f"budget rule {name}: fail ({fail}) must be "
                             f">= warn ({warn})")
        if op == ">=" and fail > warn:
            raise ValueError(f"floor rule {name}: fail ({fail}) must be "
                             f"<= warn ({warn})")
        self.name = name
        self.indicator = indicator
        self.op = op
        self.warn = warn
        self.fail = fail
        self.description = description

    @classmethod
    def parse(cls, line: str) -> "SLORule":
        """Parse one ``name: indicator op warn/fail`` rule line."""
        name, sep, rest = line.partition(":")
        if not sep:
            raise ValueError(f"SLO rule needs 'name: ...', got {line!r}")
        parts = rest.split()
        if len(parts) != 3:
            raise ValueError(
                f"SLO rule body must be '<indicator> <op> <warn>/<fail>', "
                f"got {rest.strip()!r}")
        indicator, op, thresholds = parts
        warn_text, sep, fail_text = thresholds.partition("/")
        if not sep:
            raise ValueError(
                f"SLO thresholds must be '<warn>/<fail>', got {thresholds!r}")
        try:
            warn, fail = float(warn_text), float(fail_text)
        except ValueError:
            raise ValueError(
                f"SLO thresholds must be numbers, got {thresholds!r}"
            ) from None
        return cls(name.strip(), indicator, op, warn, fail)

    def evaluate(self, value: Optional[float]) -> str:
        if value is None:
            return SKIP
        if self.op == "<=":
            if value > self.fail:
                return FAIL
            if value > self.warn:
                return WARN
            return PASS
        if value < self.fail:
            return FAIL
        if value < self.warn:
            return WARN
        return PASS

    def spec(self) -> str:
        return f"{self.name}: {self.indicator} {self.op} {self.warn:g}/{self.fail:g}"

    def __repr__(self) -> str:
        return f"<SLORule {self.spec()}>"


def default_rules() -> List[SLORule]:
    """The stock scorecard; override with ``repro report --slo FILE``."""
    return [
        SLORule("drop-rate", "drop_rate", "<=", 0.02, 0.10,
                "samples discarded across correlate/annotate/profile"),
        SLORule("fallback-rate", "fallback_rate", "<=", 0.0, 0.5,
                "degradation hops per profile-producing run"),
        SLORule("checksum-match", "checksum_match_rate", ">=", 0.95, 0.5,
                "profile functions surviving checksum verification"),
        SLORule("trim-overlap", "min_trim_overlap", ">=", 0.95, 0.8,
                "block overlap of trimmed profiles vs their raw form"),
        SLORule("bench-regression", "bench_regression", "<=", 0.25, 1.0,
                "worst slowdown vs checked-in benchmark baseline"),
        SLORule("lint-clean", "lint_findings", "<=", 0.0, 0.0,
                "flow-consistency violations found by the profile linter"),
        # Fleet-service rules (DESIGN.md sec. 14) — skip on non-fleet logs.
        SLORule("profile-freshness", "profile_freshness", ">=", 0.70, 0.40,
                "mean fraction of services on a fresh context profile"),
        SLORule("task-retry-rate", "task_retry_rate", "<=", 0.50, 2.0,
                "collection-task retries per completed task"),
        SLORule("orphan-loss", "orphan_loss", "<=", 0.0, 0.0,
                "orphaned tasks neither re-queued nor retired"),
    ]


def parse_rules(text: str) -> List[SLORule]:
    rules = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        rules.append(SLORule.parse(line))
    if not rules:
        raise ValueError("empty SLO rule file")
    return rules


def _last_snapshot_totals(events: Iterable[Event]) -> Dict[str, float]:
    totals: Dict[str, float] = {}
    for event in events:
        if event.type == "metrics_snapshot":
            totals = dict(event.get("totals") or {})
    return totals


def compute_indicators(events: List[Event]) -> Dict[str, Optional[float]]:
    """Reduce an event stream to the scorecard's indicator values."""
    totals = _last_snapshot_totals(events)

    def total_prefix(prefix: str) -> float:
        return sum(value for name, value in totals.items()
                   if name.startswith(prefix))

    indicators: Dict[str, Optional[float]] = {}

    samples = totals.get("correlate.samples_unwound", 0.0)
    dropped = (total_prefix("correlate.drop.")
               + total_prefix("annotate.drop.")
               + total_prefix("profile.drop."))
    indicators["drop_rate"] = dropped / samples if samples else None

    runs = sum(1 for e in events if e.type == "run_started"
               and e.get("variant") != "none")
    hops = sum(1 for e in events if e.type == "fallback_taken")
    indicators["fallback_rate"] = hops / runs if runs else None

    annotated = rejected = 0.0
    for event in events:
        if event.type == "profile_applied":
            annotated += float(event.get("annotated", 0))
            rejected += float(event.get("rejected_checksum", 0))
    checked = annotated + rejected
    indicators["checksum_match_rate"] = (annotated / checked if checked
                                         else None)

    overlaps = []
    for event in events:
        if event.type == "profile_generated":
            manifest = event.get("manifest") or {}
            score = (manifest.get("quality") or {}).get("trim_overlap")
            if score is not None:
                overlaps.append(float(score))
    indicators["min_trim_overlap"] = min(overlaps) if overlaps else None

    regressions = []
    for event in events:
        if event.type == "bench_point":
            regression = event.get("regression")
            if regression is not None:
                regressions.append(float(regression))
    indicators["bench_regression"] = (max(regressions) if regressions
                                      else None)

    faults = sum(float(e.get("count", 0)) for e in events
                 if e.type == "faults_injected")
    indicators["fault_events"] = faults if any(
        e.type == "faults_injected" for e in events) else None

    lint_runs = [e for e in events if e.type == "lint_summary"]
    indicators["lint_findings"] = (
        sum(float(e.get("findings", 0)) for e in lint_runs)
        if lint_runs else None)

    # Fleet-service indicators, from the periodic fleet_status rollups.
    statuses = [e for e in events if e.type == "fleet_status"]
    freshness = [float(e.get("freshness")) for e in statuses
                 if e.get("freshness") is not None]
    indicators["profile_freshness"] = (
        sum(freshness) / len(freshness) if freshness else None)
    if statuses:
        totals = dict(statuses[-1].get("totals") or {})
        completed = float(totals.get("tasks_completed", 0))
        indicators["task_retry_rate"] = (
            float(totals.get("tasks_retried", 0)) / completed
            if completed else None)
        indicators["orphan_loss"] = (
            float(totals.get("tasks_orphaned", 0))
            - float(totals.get("orphans_requeued", 0))
            - float(totals.get("orphans_exhausted", 0)))
    else:
        indicators["task_retry_rate"] = None
        indicators["orphan_loss"] = None
    return indicators


class RuleResult:
    """One rule's verdict against the computed indicator value."""

    __slots__ = ("rule", "value", "verdict")

    def __init__(self, rule: SLORule, value: Optional[float], verdict: str):
        self.rule = rule
        self.value = value
        self.verdict = verdict

    def to_dict(self) -> Dict[str, Any]:
        return {"rule": self.rule.name, "spec": self.rule.spec(),
                "indicator": self.rule.indicator, "value": self.value,
                "verdict": self.verdict,
                "description": self.rule.description}

    def __repr__(self) -> str:
        return f"<RuleResult {self.rule.name}={self.verdict}>"


class HealthReport:
    """The scorecard: every rule's verdict plus the aggregate."""

    def __init__(self, results: List[RuleResult],
                 indicators: Dict[str, Optional[float]]):
        self.results = results
        self.indicators = indicators

    @property
    def worst(self) -> str:
        verdict = SKIP
        for result in self.results:
            if _SEVERITY[result.verdict] > _SEVERITY[verdict]:
                verdict = result.verdict
        return verdict

    @property
    def failed(self) -> List[RuleResult]:
        return [r for r in self.results if r.verdict == FAIL]

    def to_dict(self) -> Dict[str, Any]:
        return {"worst": self.worst,
                "indicators": dict(self.indicators),
                "rules": [result.to_dict() for result in self.results]}

    def __repr__(self) -> str:
        return f"<HealthReport worst={self.worst} rules={len(self.results)}>"


def evaluate_health(events: List[Event],
                    rules: Optional[List[SLORule]] = None) -> HealthReport:
    rules = default_rules() if rules is None else rules
    indicators = compute_indicators(events)
    results = [RuleResult(rule, indicators.get(rule.indicator),
                          rule.evaluate(indicators.get(rule.indicator)))
               for rule in rules]
    return HealthReport(results, indicators)
