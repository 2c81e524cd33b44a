"""Context vocabulary: information sources, criteria, metrics, and goals.

Six context sources feed the decision process.  Five describe the world
around a terminal (user, terminal, application, network, provider); the
sixth is internal and carries the decision process's own past performance.
Each measurable quantity is a criterion with a polarity: beneficial values
help a network's standing, detrimental values hurt it.

Goals attach numeric acceptance regions to measured quantities; a
controller's success regions are goals on what it measures of a completed
handoff, each ``GoalSpec`` keyed by its metric id where it is held.  The
metrics a run publishes are one table.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple, Optional


class ContextSource(Enum):
    USER = "user"
    TERMINAL = "terminal"
    APPLICATION = "application"
    NETWORK = "network"
    PROVIDER = "provider"
    HANDOFF_PERFORMANCE = "handoff_performance"


class Polarity(Enum):
    BENEFICIAL = "beneficial"
    DETRIMENTAL = "detrimental"


class CriterionDef(NamedTuple):
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


class Metric(NamedTuple):
    """One published metric: ``id`` is its name in the paper's vocabulary
    (None for a plain count), and ``column`` heads its CSV column, keys its
    JSON entry and names its snapshot field.  A "constant" is passed through
    from the scenario's ``metrics_constants[id]`` and never synthesized;
    every other row is folded from the trace."""

    id: Optional[str]
    column: str
    kind: str = "fold"


# Every metric a run publishes, in column order.  ``metrics`` folds and
# writes them; scenario parsing checks ``metrics_constants`` against the
# pass-through rows, which is why the table lives here and not there.
METRICS: tuple[Metric, ...] = (
    Metric(None, "completed"),
    Metric(None, "accepted"),
    Metric(None, "rejected"),
    Metric("HOR", "hor"),
    Metric("SHOR", "shor"),
    Metric("IHOR", "ihor"),
    Metric("OHOR", "ohor"),
    Metric("THOR", "thor"),
    Metric("PHOR", "phor"),
    Metric("DTIB", "dtib"),
    Metric("IL", "il_ms"),
    Metric("IR", "ir"),
    Metric("HOL", "hol_ms"),
    Metric("DLat", "dlat_ms"),
    Metric("ExLat", "exlat_ms"),
    Metric("EvLat", "evlat_ms"),
    Metric("ImpR", "impr"),
    Metric("DR", "dr"),
    Metric("DL", "dl_ms"),
    Metric("DI", "di"),
    Metric("AL", "al", "constant"),
    Metric("SO", "so", "constant"),
    Metric("SSO", "sso", "constant"),
    Metric("DAR", "dar", "constant"),
    Metric(None, "connects"),
    Metric(None, "link_losses"),
    Metric(None, "prep_entries"),
    Metric(None, "rollbacks"),
    Metric(None, "executions"),
    Metric(None, "timely"),
    Metric(None, "tardy"),
    Metric(None, "premature"),
)
# Pass-through metric id -> column.
PASS_THROUGH = {m.id: m.column for m in METRICS if m.kind == "constant"}


class GoalDirection(Enum):
    MINIMIZE = "minimize"
    MAXIMIZE = "maximize"
    MAINTAIN_BELOW = "maintain_below"
    MAINTAIN_ABOVE = "maintain_above"
    KEEP_WITHIN = "keep_within"


class GoalSpec(NamedTuple):
    """Acceptance region for one metric, whose id keys it: a
    ``GoalDirection``, and a ``bound``, or ``lower`` and ``upper`` for
    keep-within.

    Minimize and Maximize are open-ended wishes; to make them checkable
    every goal carries a configured numeric bound, so they behave as
    maintain-below and maintain-above respectively.
    """

    direction: GoalDirection
    bound: Optional[float] = None
    lower: Optional[float] = None
    upper: Optional[float] = None


def goal_holds(value: float, goal: GoalSpec) -> bool:
    """Decide whether a single metric value lies inside the goal's region."""
    if goal.direction in (GoalDirection.MINIMIZE, GoalDirection.MAINTAIN_BELOW):
        return value < goal.bound
    if goal.direction in (GoalDirection.MAXIMIZE, GoalDirection.MAINTAIN_ABOVE):
        return value > goal.bound
    return goal.lower <= value <= goal.upper
