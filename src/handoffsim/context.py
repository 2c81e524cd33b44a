"""Context vocabulary: information sources, criteria, goals, and features.

Six context sources feed the decision process.  Five describe the world
around a terminal (user, terminal, application, network, provider); the
sixth is internal and carries the decision process's own past performance.
Each measurable quantity is a criterion with a polarity: beneficial values
help a network's standing, detrimental values hurt it.

Goals attach numeric acceptance regions to performance metrics, and
features bundle goals into named qualities a handoff should exhibit.  The
metrics a run publishes, and the ids goals name them by, are one table.
"""

from __future__ import annotations

import json
from collections import abc
from dataclasses import dataclass
from enum import Enum
from importlib import resources
from typing import Mapping, NamedTuple, Optional, Sequence

from .errors import UnknownMetricError


class ContextSource(Enum):
    USER = "user"
    TERMINAL = "terminal"
    APPLICATION = "application"
    NETWORK = "network"
    PROVIDER = "provider"
    HANDOFF_PERFORMANCE = "handoff_performance"

    @property
    def is_internal(self) -> bool:
        # Only the decision process's own performance history is internal.
        return self is ContextSource.HANDOFF_PERFORMANCE


class Polarity(Enum):
    BENEFICIAL = "beneficial"
    DETRIMENTAL = "detrimental"


@dataclass(frozen=True)
class CriterionDef:
    """One measurable decision criterion.

    ``floor`` is the smallest value admitted into logarithmic scoring;
    anything at or below it is clamped up before taking the log.
    """

    id: str
    source: ContextSource
    polarity: Polarity
    unit: str = ""
    floor: float = 1e-6


def _c(cid, source, polarity, unit):
    return CriterionDef(cid, source, polarity, unit)


_B = Polarity.BENEFICIAL
_D = Polarity.DETRIMENTAL

# Catalog of the built-in criteria.  Link-quality and power measures come
# from the terminal, traffic measures from the application, load and
# capacity measures from the network.  User and provider context enter as
# opaque preference scores only.
_DEFAULT_CATALOG: tuple[CriterionDef, ...] = (
    _c("RSS", ContextSource.TERMINAL, _B, "dBm"),
    _c("SNR", ContextSource.TERMINAL, _B, "dB"),
    _c("SNIR", ContextSource.TERMINAL, _B, "dB"),
    _c("SIR", ContextSource.TERMINAL, _B, "dB"),
    _c("CIR", ContextSource.TERMINAL, _B, "dB"),
    _c("BER", ContextSource.TERMINAL, _D, "ratio"),
    _c("BLER", ContextSource.TERMINAL, _D, "ratio"),
    _c("CCI", ContextSource.TERMINAL, _D, "dB"),
    _c("BL", ContextSource.TERMINAL, _B, "%"),
    _c("ECR", ContextSource.TERMINAL, _D, "mW"),
    _c("TPC", ContextSource.TERMINAL, _D, "dBm"),
    _c("TPT", ContextSource.TERMINAL, _D, "dBm"),
    _c("PB", ContextSource.TERMINAL, _B, "mW"),
    _c("LP", ContextSource.APPLICATION, _D, "ratio"),
    _c("DP", ContextSource.APPLICATION, _D, "ms"),
    _c("CP", ContextSource.APPLICATION, _D, "ratio"),
    _c("DuP", ContextSource.APPLICATION, _D, "ratio"),
    _c("PJ", ContextSource.APPLICATION, _D, "ms"),
    _c("OOD", ContextSource.APPLICATION, _D, "count"),
    _c("DTR", ContextSource.APPLICATION, _B, "kbps"),
    _c("NBW", ContextSource.NETWORK, _B, "Mbps"),
    _c("NMTU", ContextSource.NETWORK, _B, "bytes"),
    _c("NL", ContextSource.NETWORK, _D, "ms"),
    _c("ND", ContextSource.NETWORK, _D, "ratio"),
    _c("NJ", ContextSource.NETWORK, _D, "ms"),
    _c("NT", ContextSource.NETWORK, _B, "Mbps"),
    _c("UPREF", ContextSource.USER, _B, "score"),
    _c("PPREF", ContextSource.PROVIDER, _B, "score"),
    _c("FEE", ContextSource.PROVIDER, _D, "score"),
    _c("ETSLH", ContextSource.HANDOFF_PERFORMANCE, _B, "s"),
    _c("HOLH", ContextSource.HANDOFF_PERFORMANCE, _D, "ms"),
)


def default_catalog() -> list[CriterionDef]:
    """Return the built-in criterion catalog (fresh list, safe to extend)."""
    return list(_DEFAULT_CATALOG)


def catalog_index(
    catalog: Sequence[CriterionDef] | Mapping[str, CriterionDef],
) -> Mapping[str, CriterionDef]:
    """Criteria by id.  A mapping is taken to be an index already and is
    returned unchanged, so a caller scoring many vectors builds it once."""
    if isinstance(catalog, abc.Mapping):
        return catalog
    index: dict[str, CriterionDef] = {}
    for cdef in catalog:
        if cdef.id in index:
            raise ValueError(f"catalog defines criterion {cdef.id!r} twice")
        index[cdef.id] = cdef
    return index


@dataclass(frozen=True)
class CriteriaVector:
    """Criterion values observed for one network at one instant."""

    values: Mapping[str, float]
    timestamp: int = 0


class Metric(NamedTuple):
    """One published metric: ``id`` is the name goals and
    ``MetricSnapshot.get`` use (None for a plain count), ``column`` heads
    the CSV column and keys the JSON entry, and ``source`` is the snapshot
    attribute that holds the value, or the key of ``counts`` when ``kind``
    is "count".  A "constant" is a pass-through attribute set from the
    scenario's ``metrics_constants[id]`` and never synthesized."""

    id: Optional[str]
    column: str
    source: str
    kind: str = "fold"


# Every metric a run publishes, in column order.  ``metrics`` folds and
# writes them; scenario parsing checks ``metrics_constants`` against the
# pass-through rows, which is why the table lives here and not there.
METRICS: tuple[Metric, ...] = (
    Metric(None, "completed", "completed"),
    Metric(None, "accepted", "accepted"),
    Metric(None, "rejected", "rejected"),
    Metric("HOR", "hor", "hor"),
    Metric("SHOR", "shor", "shor"),
    Metric("IHOR", "ihor", "ihor"),
    Metric("OHOR", "ohor", "ohor"),
    Metric("THOR", "thor", "thor"),
    Metric("PHOR", "phor", "phor"),
    Metric("DTIB", "dtib", "dtib"),
    Metric("IL", "il_ms", "il"),
    Metric("IR", "ir", "ir"),
    Metric("HOL", "hol_ms", "hol"),
    Metric("DLat", "dlat_ms", "dlat"),
    Metric("ExLat", "exlat_ms", "exlat"),
    Metric("EvLat", "evlat_ms", "evlat"),
    Metric("ImpR", "impr", "impr"),
    Metric("DR", "dr", "dr"),
    Metric("DL", "dl_ms", "dl"),
    Metric("DI", "di", "di"),
    Metric("AL", "al", "al", "constant"),
    Metric("SO", "so", "so", "constant"),
    Metric("SSO", "sso", "sso", "constant"),
    Metric("DAR", "dar", "dar", "constant"),
    Metric(None, "connects", "connects", "count"),
    Metric(None, "link_losses", "link_losses", "count"),
    Metric(None, "prep_entries", "prep_entries", "count"),
    Metric(None, "rollbacks", "rollbacks", "count"),
    Metric(None, "executions", "executions", "count"),
    Metric(None, "timely", "timely", "count"),
    Metric(None, "tardy", "tardy", "count"),
    Metric(None, "premature", "premature", "count"),
)
# Pass-through metric id -> snapshot attribute.
PASS_THROUGH = {m.id: m.source for m in METRICS if m.kind == "constant"}


class GoalDirection(Enum):
    MINIMIZE = "minimize"
    MAXIMIZE = "maximize"
    MAINTAIN_BELOW = "maintain_below"
    MAINTAIN_ABOVE = "maintain_above"
    KEEP_WITHIN = "keep_within"


@dataclass(frozen=True)
class GoalSpec:
    """Acceptance region for one metric.

    Minimize and Maximize are open-ended wishes; to make them checkable
    every goal carries a configured numeric bound, so they behave as
    maintain-below and maintain-above respectively.
    """

    metric_id: str
    direction: GoalDirection
    bound: Optional[float] = None
    lower: Optional[float] = None
    upper: Optional[float] = None

    def __post_init__(self):
        if self.direction is GoalDirection.KEEP_WITHIN:
            if self.lower is None or self.upper is None:
                raise ValueError(f"goal {self.metric_id}: keep_within needs lower and upper")
        elif self.bound is None:
            raise ValueError(f"goal {self.metric_id}: direction {self.direction.value} needs a bound")


def goal_holds(value: float, goal: GoalSpec) -> bool:
    """Decide whether a single metric value lies inside the goal's region."""
    if goal.direction in (GoalDirection.MINIMIZE, GoalDirection.MAINTAIN_BELOW):
        return value < goal.bound
    if goal.direction in (GoalDirection.MAXIMIZE, GoalDirection.MAINTAIN_ABOVE):
        return value > goal.bound
    return goal.lower <= value <= goal.upper


def goal_satisfied(snapshot, goal: GoalSpec) -> bool:
    """Check a goal against a metric snapshot.

    ``snapshot`` needs only a ``get(metric_id)`` method returning a float or
    None.  A metric the snapshot cannot provide raises UnknownMetricError.
    """
    value = snapshot.get(goal.metric_id)
    if value is None:
        raise UnknownMetricError(goal.metric_id)
    return goal_holds(value, goal)


@dataclass(frozen=True)
class FeatureSpec:
    """A named quality of the handoff process, judged by its goals."""

    name: str
    goals: tuple[GoalSpec, ...] = ()
    description: str = ""


FEATURE_NAMES = (
    "seamlessness",
    "autonomy",
    "security",
    "correctness",
    "adaptability",
    "necessary",
    "selective",
    "efficient",
    "beneficial",
    "timely",
)


@dataclass(frozen=True)
class FeatureResult:
    feature: str
    passed: bool
    vacuous: bool
    failed_goals: tuple[str, ...] = ()


def _load_default_goal_config() -> dict:
    data = resources.files("handoffsim").joinpath("data/feature_goals.json").read_text()
    return json.loads(data)


def _goal_from_config(metric_id: str, cfg: Mapping) -> GoalSpec:
    direction = GoalDirection(cfg["direction"])
    return GoalSpec(
        metric_id=metric_id,
        direction=direction,
        bound=cfg.get("bound"),
        lower=cfg.get("lower"),
        upper=cfg.get("upper"),
    )


def default_feature_specs(overrides: Optional[Mapping] = None) -> list[FeatureSpec]:
    """Build the ten feature specs from the shipped goal configuration.

    ``overrides`` replaces the goal list of any feature it names, using the
    same JSON shape as the shipped file: {feature: {metric: {direction,
    bound|lower+upper}}}.  An empty goal map is allowed and yields a feature
    that passes vacuously.
    """
    config = _load_default_goal_config()
    if overrides:
        for name, goals in overrides.items():
            if name not in FEATURE_NAMES:
                raise ValueError(f"unknown feature name: {name!r}")
            config[name] = {"goals": dict(goals)}
    specs = []
    for name in FEATURE_NAMES:
        entry = config.get(name, {"goals": {}})
        goals = tuple(
            _goal_from_config(mid, gcfg) for mid, gcfg in sorted(entry.get("goals", {}).items())
        )
        specs.append(FeatureSpec(name=name, goals=goals, description=entry.get("description", "")))
    return specs


def feature_report(snapshot, specs: Sequence[FeatureSpec]) -> dict[str, FeatureResult]:
    """Judge every feature against a metric snapshot.

    A feature passes when all of its goals hold.  A feature with no goals
    passes and is flagged vacuous so reports cannot silently claim
    substance they never checked.
    """
    report = {}
    for spec in specs:
        failed = []
        for goal in spec.goals:
            if not goal_satisfied(snapshot, goal):
                failed.append(goal.metric_id)
        report[spec.name] = FeatureResult(
            feature=spec.name,
            passed=not failed,
            vacuous=not spec.goals,
            failed_goals=tuple(failed),
        )
    return report
