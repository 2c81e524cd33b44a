"""Scenario documents: the JSON schema, parsing, and validation.

A scenario bundles everything one simulation run needs: the topology, the
terminals and their movement paths, the scoring weights, the controller
configuration, the context synthesis spec, and the run horizon.  Documents
are plain JSON; ``load_scenario`` parses and validates in one pass and
raises ScenarioError carrying every diagnostic it found, each anchored to
the offending field path (or input line for parse errors).
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Optional

from .context import (
    PASS_THROUGH,
    ContextSource,
    CriterionDef,
    Polarity,
    default_catalog,
    _goal_from_config,
)
from .controller import DEFAULT_LAYER_METHODS, MEASURED, ControllerConfig, PolicyTable, Strategy
from .desirability import WeightProfile
from .errors import ScenarioError, WeightProfileError
from .synthesis import ContextSynthesisSpec, NetworkSignals
from .taxonomy import Layer
from .topology import TIER_DEFAULTS, BaseStation, IPNet, Provider, Topology

Position = tuple[float, float]


@dataclass(frozen=True)
class TerminalSpec:
    id: str
    path: tuple[tuple[int, Position], ...]
    battery: float = 100.0
    app_type: str = "*"


@dataclass(frozen=True)
class Scenario:
    seed: int
    duration_ms: int
    tick_ms: int
    topology: Topology
    terminals: tuple[TerminalSpec, ...]
    weights: WeightProfile
    controller: ControllerConfig
    synthesis: ContextSynthesisSpec
    catalog: tuple[CriterionDef, ...]
    feature_goals: Optional[Mapping] = None
    metrics_constants: Mapping[str, float] = field(default_factory=dict)
    raw: Mapping = field(default_factory=dict)


def _parse_topology(doc, problems) -> Optional[Topology]:
    topo_doc = doc.get("topology")
    if not isinstance(topo_doc, dict):
        problems.append("topology: missing or not an object")
        return None
    providers, nets, stations = [], [], []
    for pi, pdoc in enumerate(topo_doc.get("providers", [])):
        ppath = f"topology.providers[{pi}]"
        pid = pdoc.get("id")
        if not pid:
            problems.append(f"{ppath}.id: missing")
            continue
        net_ids = []
        for ni, ndoc in enumerate(pdoc.get("nets", [])):
            npath = f"{ppath}.nets[{ni}]"
            nid = ndoc.get("id")
            if not nid:
                problems.append(f"{npath}.id: missing")
                continue
            station_ids = []
            for si, sdoc in enumerate(ndoc.get("stations", [])):
                spath = f"{npath}.stations[{si}]"
                sid = sdoc.get("id")
                if not sid:
                    problems.append(f"{spath}.id: missing")
                    continue
                pos = sdoc.get("position")
                if not (isinstance(pos, (list, tuple)) and len(pos) == 2):
                    problems.append(f"{spath}.position: expected [x, y]")
                    pos = (0.0, 0.0)
                tech = sdoc.get("technology")
                if not tech:
                    problems.append(f"{spath}.technology: missing")
                    tech = "?"
                stations.append(
                    BaseStation(
                        id=sid,
                        net_id=nid,
                        provider_id=pid,
                        position=(float(pos[0]), float(pos[1])),
                        technology=tech,
                        tier=sdoc.get("tier", "macro"),
                        radius=sdoc.get("radius"),
                        channels=tuple(sdoc.get("channels", [])),
                    )
                )
                station_ids.append(sid)
            nets.append(IPNet(id=nid, provider_id=pid, station_ids=tuple(station_ids)))
            net_ids.append(nid)
        providers.append(Provider(id=pid, net_ids=tuple(net_ids)))
    topo = Topology(
        providers=tuple(providers),
        nets=tuple(nets),
        stations=tuple(stations),
        path_loss_overrides=_parse_path_loss(doc, problems),
    )
    for problem in topo.validate():
        problems.append(f"topology: {problem}")
    if not stations:
        problems.append("topology: no base stations defined")
    return topo


_PATH_LOSS_FIELDS = ("tx_power_dbm", "exponent")


def _parse_path_loss(doc, problems) -> Mapping[str, Mapping]:
    """Per-tier overrides of the path-loss parameters, checked field by field."""
    pdoc = doc.get("path_loss", {})
    if not isinstance(pdoc, dict):
        problems.append("path_loss: not an object")
        return {}
    for tier, fields in pdoc.items():
        tpath = f"path_loss.{tier}"
        if tier not in TIER_DEFAULTS:
            problems.append(f"{tpath}: unknown tier (expected one of {', '.join(TIER_DEFAULTS)})")
            continue
        if not isinstance(fields, dict):
            problems.append(f"{tpath}: not an object")
            continue
        for name, value in fields.items():
            if name not in _PATH_LOSS_FIELDS:
                expected = " or ".join(_PATH_LOSS_FIELDS)
                problems.append(f"{tpath}.{name}: unknown field (expected {expected})")
            else:
                _check_number(f"{tpath}.{name}", value, problems)
    return pdoc


def _check_number(path: str, value, problems) -> bool:
    """Whether ``value`` is a finite JSON number; reports why not at ``path``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        problems.append(f"{path}: must be a number")
        return False
    if not abs(value) <= sys.float_info.max:  # NaN, infinities, huge ints
        problems.append(f"{path}: must be finite")
        return False
    return True


def _parse_constants(doc, problems) -> dict[str, float]:
    """The pass-through metric values a scenario supplies, by metric id."""
    cdoc = doc.get("metrics_constants", {})
    if not isinstance(cdoc, dict):
        problems.append("metrics_constants: not an object")
        return {}
    constants = {}
    for mid, value in cdoc.items():
        path = f"metrics_constants.{mid}"
        if mid not in PASS_THROUGH:
            expected = ", ".join(PASS_THROUGH)
            problems.append(f"{path}: unknown constant (expected one of {expected})")
        elif _check_number(path, value, problems):
            constants[mid] = float(value)
    return constants


def _parse_terminals(doc, problems) -> list[TerminalSpec]:
    terminals = []
    seen = set()
    tdocs = doc.get("terminals")
    if not isinstance(tdocs, list) or not tdocs:
        problems.append("terminals: at least one terminal required")
        return terminals
    for ti, tdoc in enumerate(tdocs):
        tpath = f"terminals[{ti}]"
        tid = tdoc.get("id")
        if not tid:
            problems.append(f"{tpath}.id: missing")
            continue
        if tid in seen:
            problems.append(f"{tpath}.id: duplicate terminal id {tid!r}")
        seen.add(tid)
        path_doc = tdoc.get("path")
        if not isinstance(path_doc, list) or not path_doc:
            problems.append(f"{tpath}.path: needs at least one [t, [x, y]] waypoint")
            continue
        waypoints = []
        last_t = -1
        ok = True
        for wi, wp in enumerate(path_doc):
            try:
                t, (x, y) = int(wp[0]), wp[1]
                waypoints.append((t, (float(x), float(y))))
            except (TypeError, ValueError, IndexError):
                problems.append(f"{tpath}.path[{wi}]: expected [t, [x, y]]")
                ok = False
                continue
            if t <= last_t:
                problems.append(f"{tpath}.path[{wi}]: waypoint times must increase")
                ok = False
            last_t = t
        if not ok:
            continue
        terminals.append(
            TerminalSpec(
                id=tid,
                path=tuple(waypoints),
                battery=float(tdoc.get("battery", 100.0)),
                app_type=tdoc.get("app_type", "*"),
            )
        )
    return terminals


def _parse_catalog(doc, problems) -> list[CriterionDef]:
    catalog = default_catalog()
    known = {c.id for c in catalog}
    for ci, cdoc in enumerate(doc.get("criteria", [])):
        cpath = f"criteria[{ci}]"
        cid = cdoc.get("id")
        if not cid:
            problems.append(f"{cpath}.id: missing")
            continue
        if cid in known:
            problems.append(f"{cpath}.id: {cid!r} already defined")
            continue
        known.add(cid)
        try:
            source = ContextSource(cdoc.get("source", "network"))
        except ValueError:
            problems.append(f"{cpath}.source: unknown source {cdoc.get('source')!r}")
            continue
        try:
            polarity = Polarity(cdoc.get("polarity", ""))
        except ValueError:
            problems.append(f"{cpath}.polarity: expected beneficial or detrimental")
            continue
        catalog.append(
            CriterionDef(
                id=cid,
                source=source,
                polarity=polarity,
                unit=cdoc.get("unit", ""),
                floor=float(cdoc.get("floor", 1e-6)),
            )
        )
    return catalog


def _parse_controller(doc, problems) -> ControllerConfig:
    cdoc = doc.get("controller", {})
    if not isinstance(cdoc, dict):
        problems.append("controller: not an object")
        cdoc = {}
    try:
        strategy = Strategy(cdoc.get("strategy", "reactive"))
    except ValueError:
        problems.append(f"controller.strategy: expected reactive or proactive, got {cdoc.get('strategy')!r}")
        strategy = Strategy.REACTIVE
    regions = {}
    for mid, gdoc in sorted(doc.get("success_regions", {}).items()):
        if mid not in MEASURED:
            # evaluate() would reject every handoff for want of the measure.
            problems.append(
                f"success_regions.{mid}: not measured by the controller "
                f"(expected one of {', '.join(MEASURED)})"
            )
            continue
        try:
            regions[mid] = _goal_from_config(mid, gdoc)
        except (ValueError, KeyError) as exc:
            problems.append(f"success_regions.{mid}: {exc}")
    policy = _parse_policy(doc, problems)
    cfg = ControllerConfig(
        hysteresis_delta=float(cdoc.get("hysteresis_delta", 0.5)),
        th_sup=float(cdoc.get("th_sup", 8.0)),
        th_inf=float(cdoc.get("th_inf", 2.0)),
        dwell_sp=int(cdoc.get("dwell_sp", 200)),
        prep_latency=int(cdoc.get("prep_latency", 100)),
        exec_latency=int(cdoc.get("exec_latency", 100)),
        eval_latency=int(cdoc.get("eval_latency", 100)),
        strategy=strategy,
        app_timeout=int(cdoc.get("app_timeout", 1000)),
        opportunist_on_target=bool(cdoc.get("opportunist_on_target", False)),
        success_regions=regions,
        policy=policy,
    )
    # NaN fails every comparison, so the range checks below would pass it
    # or blame the wrong field.
    nonfinite = {
        name for name in ("hysteresis_delta", "th_sup", "th_inf")
        if not math.isfinite(getattr(cfg, name))
    }
    for name in sorted(nonfinite):
        problems.append(f"controller.{name}: must be finite")
    if "hysteresis_delta" not in nonfinite and cfg.hysteresis_delta < 0:
        problems.append("controller.hysteresis_delta: must be >= 0")
    if cfg.dwell_sp < 0:
        problems.append("controller.dwell_sp: must be >= 0")
    for name in ("prep_latency", "exec_latency", "eval_latency"):
        if getattr(cfg, name) < 0:
            problems.append(f"controller.{name}: must be >= 0")
    if not nonfinite & {"th_inf", "th_sup"} and not cfg.th_inf < cfg.th_sup:
        problems.append("controller.th_inf: must be strictly below controller.th_sup")
    return cfg


def _parse_policy(doc, problems) -> PolicyTable:
    pdoc = doc.get("policy")
    if pdoc is None:
        return PolicyTable()
    entries = {}
    for ei, edoc in enumerate(pdoc.get("entries", [])):
        epath = f"policy.entries[{ei}]"
        layer = edoc.get("layer")
        if layer not in {l.value for l in Layer}:
            problems.append(f"{epath}.layer: unknown layer {layer!r}")
            continue
        method = edoc.get("method")
        if not method:
            problems.append(f"{epath}.method: missing")
            continue
        key = (layer, edoc.get("app_type", "*"), edoc.get("mobility", "*"))
        entries[key] = method
    defaults = {} if pdoc.get("strict") else dict(DEFAULT_LAYER_METHODS)
    return PolicyTable(entries=entries, defaults=defaults)


def _parse_synthesis(doc, problems, seed: int) -> ContextSynthesisSpec:
    sdoc = doc.get("synthesis", {})
    mode = sdoc.get("mode", "geometric")
    if mode not in ("geometric", "stochastic"):
        problems.append(f"synthesis.mode: expected geometric or stochastic, got {mode!r}")
        mode = "geometric"
    networks = {}
    for net_id, ndoc in sorted(sdoc.get("networks", {}).items()):
        npath = f"synthesis.networks.{net_id}"
        waypoints = {}
        for cid, series in ndoc.get("waypoints", {}).items():
            pts = []
            last_t = None
            for pt in series:
                t, v = int(pt[0]), float(pt[1])
                if last_t is not None and t <= last_t:
                    problems.append(f"{npath}.waypoints.{cid}: times must increase")
                    break
                pts.append((t, v))
                last_t = t
            else:
                if pts:
                    waypoints[cid] = tuple(pts)
                else:
                    problems.append(f"{npath}.waypoints.{cid}: empty series")
        networks[net_id] = NetworkSignals(
            base={k: float(v) for k, v in ndoc.get("base", {}).items()},
            ramps={k: float(v) for k, v in ndoc.get("ramps", {}).items()},
            waypoints=waypoints,
            start={k: float(v) for k, v in ndoc.get("start", {}).items()},
        )
    rho = float(sdoc.get("ar1_rho", 0.9))
    sigma = float(sdoc.get("noise_sigma", 0.0))
    if not (0.0 <= rho < 1.0):
        problems.append("synthesis.ar1_rho: must lie in [0, 1)")
    if sigma < 0:
        problems.append("synthesis.noise_sigma: must be >= 0")
    return ContextSynthesisSpec(
        mode=mode, networks=networks, ar1_rho=rho, noise_sigma=sigma, seed=seed
    )


def from_dict(doc: Mapping) -> Scenario:
    """Build a validated Scenario from a parsed JSON document."""
    problems: list[str] = []
    if not isinstance(doc, Mapping):
        raise ScenarioError(["document: expected a JSON object"])

    seed = doc.get("seed", 0)
    if not isinstance(seed, int):
        problems.append("seed: must be an integer")
        seed = 0
    duration = doc.get("duration_ms")
    tick = doc.get("tick_ms")
    if not isinstance(duration, int) or duration < 0:
        problems.append("duration_ms: required non-negative integer")
        duration = 0
    if not isinstance(tick, int) or tick <= 0:
        problems.append("tick_ms: required positive integer")
        tick = 1
    if duration % tick != 0:
        problems.append("duration_ms: must be a multiple of tick_ms")

    topo = _parse_topology(doc, problems)
    terminals = _parse_terminals(doc, problems)
    catalog = _parse_catalog(doc, problems)

    wdoc = doc.get("weights", {})
    weights = WeightProfile(
        weights={k: float(v) for k, v in wdoc.get("weights", {}).items()},
        k=float(wdoc.get("k", 1.0)),
    )
    try:
        weights.validate(catalog)
    except WeightProfileError as exc:
        problems.append(f"weights: {exc}")

    controller = _parse_controller(doc, problems)
    synthesis = _parse_synthesis(doc, problems, seed)

    # Every weighted criterion other than RSS must be synthesized for every
    # station, otherwise scoring would fail mid-run.
    if topo is not None:
        weighted = sorted(set(weights.weights) - {"RSS"})
        for bs in topo.stations:
            signals = synthesis.networks.get(bs.id)
            have = set() if signals is None else (
                set(signals.base) | set(signals.ramps) | set(signals.waypoints)
            )
            missing = [w for w in weighted if w not in have]
            if missing:
                problems.append(
                    f"synthesis.networks.{bs.id}: missing weighted criteria {missing}"
                )

    feature_goals = doc.get("feature_goals")
    constants = _parse_constants(doc, problems)

    if problems:
        raise ScenarioError(problems)
    return Scenario(
        seed=seed,
        duration_ms=duration,
        tick_ms=tick,
        topology=topo,
        terminals=tuple(terminals),
        weights=weights,
        controller=controller,
        synthesis=synthesis,
        catalog=tuple(catalog),
        feature_goals=feature_goals,
        metrics_constants=constants,
        raw=dict(doc),
    )


def load_scenario(path: str | Path) -> Scenario:
    """Read, parse, and validate a scenario file."""
    text = Path(path).read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError([f"line {exc.lineno}: {exc.msg}"]) from exc
    return from_dict(doc)
