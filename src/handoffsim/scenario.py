"""Scenario documents: the JSON schema, parsing, and validation.

A scenario bundles everything one simulation run needs: the topology, the
terminals and their movement paths, the scoring weights, the controller
configuration, the context synthesis spec, and the run horizon.  Documents
are plain JSON; ``load_scenario`` parses and validates in one pass and
raises ScenarioError carrying every diagnostic it found, each anchored to
the offending field path (or input line for parse errors).  Each object of
a document accepts a fixed set of keys and each value one JSON type, so a
key either changes the run or is rejected.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Mapping, NamedTuple, Optional

from .context import (
    PASS_THROUGH,
    ContextSource,
    CriterionDef,
    GoalDirection,
    GoalSpec,
    Polarity,
    default_catalog,
)
from .controller import DEFAULT_LAYER_METHODS, MEASURED, ControllerConfig, PolicyTable, Strategy
from .desirability import WeightProfile
from .errors import ScenarioError, WeightProfileError
from .synthesis import ContextSynthesisSpec, NetworkSignals
from .taxonomy import Layer
from .topology import TIER_DEFAULTS, BaseStation, IPNet, Provider, Topology

Position = tuple[float, float]


class TerminalSpec(NamedTuple):
    id: str
    path: tuple[tuple[int, Position], ...]
    app_type: str = "*"


class Scenario(NamedTuple):
    seed: int
    duration_ms: int
    tick_ms: int
    topology: Topology
    terminals: tuple[TerminalSpec, ...]
    weights: WeightProfile
    controller: ControllerConfig
    synthesis: ContextSynthesisSpec
    catalog: tuple[CriterionDef, ...]
    metrics_constants: Mapping[str, float] = {}
    raw: Mapping = {}


# The keys each object of a document accepts.  Objects keyed by ids (tiers,
# stations, criteria, metrics) are checked where they are read.
_TOP_KEYS = frozenset(
    "seed duration_ms tick_ms topology path_loss terminals criteria weights controller"
    " success_regions policy synthesis metrics_constants".split()
)
_PROVIDER_KEYS = frozenset(("id", "nets"))
_NET_KEYS = frozenset(("id", "stations"))
_STATION_KEYS = frozenset(("id", "position", "technology", "tier", "radius", "channels"))
_TERMINAL_KEYS = frozenset(("id", "path", "app_type"))
_CRITERION_KEYS = frozenset(("id", "source", "polarity", "unit", "floor"))
_CONTROLLER_NUMBERS = {
    "hysteresis_delta": float, "th_sup": float, "th_inf": float,
    "dwell_sp": int, "prep_latency": int, "exec_latency": int, "eval_latency": int,
}
_CONTROLLER_KEYS = frozenset((*_CONTROLLER_NUMBERS, "strategy", "opportunist_on_target"))
_ENTRY_KEYS = frozenset(("layer", "app_type", "method"))
_SYNTHESIS_KEYS = frozenset(("mode", "networks", "ar1_rho", "noise_sigma"))
_SIGNAL_KEYS = frozenset(("base", "ramps", "waypoints", "start"))
_REGION_KEYS = frozenset(("direction", "bound", "lower", "upper"))
_DIRECTIONS = ", ".join(d.value for d in GoalDirection)
_PATH_LOSS_KEYS = frozenset(("tx_power_dbm", "exponent"))

_LAYERS = tuple(layer.value for layer in Layer)
_DEFAULT_CONTROLLER = ControllerConfig()
_TYPE_NAMES = {str: "a string", int: "an integer", bool: "true or false", list: "a list"}
_FLOAT_MAX = sys.float_info.max

# Values are tested by exact type: JSON gives dict, list, str, int, float
# and bool, and ``isinstance`` against the typing aliases costs a
# microsecond a call.  Field paths are built only to report a problem.


def _at(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _object(value, path: str, keys, problems, what: str = "field") -> Optional[dict]:
    """``value`` if it is a JSON object, else None.  Reports a value that is
    not an object, and each of its keys outside ``keys`` (a frozenset, or
    None for any key)."""
    if type(value) is not dict:
        problems.append(f"{path}: not an object")
        return None
    if keys is not None and not keys.issuperset(value):
        expected = ", ".join(sorted(keys))
        for key in value:
            if key not in keys:
                problems.append(f"{_at(path, key)}: unknown {what} (expected one of {expected})")
    return value


def _check_number(value) -> Optional[str]:
    """Why ``value`` is not a finite JSON number (booleans are not), or None."""
    if type(value) is not float and type(value) is not int:
        return "must be a number"
    if not abs(value) <= _FLOAT_MAX:  # NaN, infinities, huge ints
        return "must be finite"
    return None


def _field(obj: dict, key: str, path: str, problems, kind: type, default=None):
    """``obj[key]``, or ``default`` when absent, if it has the JSON type
    ``kind``: exactly that type, or for ``float`` any finite number.  Else
    None, reported at ``path.key``.  With no default the field is required:
    absent, null or an empty string, it is missing (for ``float``, not a
    number)."""
    value = obj.get(key, default)
    if kind is float:
        why = _check_number(value)
    elif type(value) is kind and (value != "" or default is not None):
        return value
    elif default is None and (value is None or value == ""):
        why = "missing"
    else:
        why = f"must be {_TYPE_NAMES[kind]}"
    if why is None:
        return value
    problems.append(f"{_at(path, key)}: {why}")
    return None


def _members(obj: dict, key: str, path: str, problems) -> dict:
    """``obj[key]``, an object keyed by ids, or {} when it is absent or is
    not an object (reported)."""
    value = obj.get(key, {})
    if type(value) is dict:
        return value
    _object(value, _at(path, key), None, problems)
    return {}


def _numbers(obj: dict, key: str, path: str, problems, keys=None, what="field") -> dict:
    """``obj[key]``, an object of finite numbers, as floats; {} when absent.
    ``keys`` and ``what`` are as for ``_object``."""
    if key not in obj:
        return {}
    where = _at(path, key)
    out = {}
    for name, value in (_object(obj[key], where, keys, problems, what) or {}).items():
        if keys is not None and name not in keys:
            continue  # reported by _object
        why = _check_number(value)
        if why is None:
            out[name] = float(value)
        else:
            problems.append(f"{where}.{name}: {why}")
    return out


def _identified(value, path: str, keys, problems) -> tuple[Optional[dict], Optional[str]]:
    """(object, id) for a JSON object with a non-empty string ``id``, else
    an id of None, reported."""
    obj = _object(value, path, keys, problems)
    return obj, None if obj is None else _field(obj, "id", path, problems, str)


def _check_xy(value) -> Optional[str]:
    """Why ``value`` is not an ``[x, y]`` pair of finite numbers, or None."""
    if type(value) is not list or len(value) != 2:
        return "expected [x, y]"
    return _check_number(value[0]) or _check_number(value[1])


def _parse_topology(doc, problems) -> Optional[Topology]:
    """The topology, or None when it has a problem."""
    reported = len(problems)
    topo_doc = doc.get("topology")
    if type(topo_doc) is not dict:
        problems.append("topology: missing or not an object")
        return None
    _object(topo_doc, "topology", frozenset(("providers",)), problems)
    providers, nets, stations = [], [], []
    for pi, pdoc in enumerate(_field(topo_doc, "providers", "topology", problems, list, []) or ()):
        ppath = f"topology.providers[{pi}]"
        pdoc, pid = _identified(pdoc, ppath, _PROVIDER_KEYS, problems)
        if pid is None:
            continue
        net_ids = []
        for ni, ndoc in enumerate(_field(pdoc, "nets", ppath, problems, list, []) or ()):
            npath = f"{ppath}.nets[{ni}]"
            ndoc, nid = _identified(ndoc, npath, _NET_KEYS, problems)
            if nid is None:
                continue
            station_ids = []
            for si, sdoc in enumerate(_field(ndoc, "stations", npath, problems, list, []) or ()):
                spath = f"{npath}.stations[{si}]"
                sdoc, sid = _identified(sdoc, spath, _STATION_KEYS, problems)
                if sid is None:
                    continue
                before = len(problems)
                pos = sdoc.get("position")
                why = _check_xy(pos)
                if why is not None:
                    problems.append(f"{spath}.position: {why}")
                tech = _field(sdoc, "technology", spath, problems, str)
                tier = _field(sdoc, "tier", spath, problems, str, "macro")
                radius = _field(sdoc, "radius", spath, problems, float) if "radius" in sdoc else None
                channels = _field(sdoc, "channels", spath, problems, list, []) or ()
                for ci, channel in enumerate(channels):
                    if type(channel) is not str:
                        problems.append(f"{spath}.channels[{ci}]: must be a string")
                if len(problems) == before:
                    stations.append(BaseStation(
                        id=sid, net_id=nid, provider_id=pid, position=(float(pos[0]), float(pos[1])),
                        technology=tech, tier=tier, radius=radius, channels=tuple(channels),
                    ))
                    station_ids.append(sid)
            nets.append(IPNet(id=nid, provider_id=pid, station_ids=tuple(station_ids)))
            net_ids.append(nid)
        providers.append(Provider(id=pid, net_ids=tuple(net_ids)))
    # Per-tier overrides of the path-loss parameters.
    tiers = _object(doc.get("path_loss", {}), "path_loss", frozenset(TIER_DEFAULTS), problems, "tier")
    path_loss = {
        tier: _numbers(tiers, tier, "path_loss", problems, _PATH_LOSS_KEYS)
        for tier in tiers or () if tier in TIER_DEFAULTS
    }
    topo = Topology(
        providers=tuple(providers), nets=tuple(nets), stations=tuple(stations),
        path_loss_overrides=path_loss,
    )
    for problem in topo.validate():
        problems.append(f"topology: {problem}")
    if not stations:
        problems.append("topology: no base stations defined")
    return topo if len(problems) == reported else None


def _parse_terminals(doc, problems) -> list[TerminalSpec]:
    terminals = []
    seen = set()
    tdocs = doc.get("terminals")
    if type(tdocs) is not list or not tdocs:
        problems.append("terminals: at least one terminal required")
        return terminals
    for ti, tdoc in enumerate(tdocs):
        tpath = f"terminals[{ti}]"
        tdoc, tid = _identified(tdoc, tpath, _TERMINAL_KEYS, problems)
        if tid is None:
            continue
        if tid in seen:
            problems.append(f"{tpath}.id: duplicate terminal id {tid!r}")
        if tid == "all":
            problems.append(f'{tpath}.id: "all" is reserved for the pooled row')
        seen.add(tid)
        before = len(problems)
        app_type = _field(tdoc, "app_type", tpath, problems, str, "*")
        path_doc = tdoc.get("path")
        if type(path_doc) is not list or not path_doc:
            problems.append(f"{tpath}.path: needs at least one [t, [x, y]] waypoint")
            continue
        waypoints = []
        last_t = None
        for wi, wp in enumerate(path_doc):
            if type(wp) is not list or len(wp) != 2 or type(wp[0]) is not int:
                why = "expected [t, [x, y]]"
            else:
                why = _check_xy(wp[1])
            if why is not None:
                problems.append(f"{tpath}.path[{wi}]: {why}")
                continue
            t, (x, y) = wp
            if last_t is not None and t <= last_t:
                problems.append(f"{tpath}.path[{wi}]: waypoint times must increase")
            last_t = t
            waypoints.append((t, (float(x), float(y))))
        if len(problems) == before:
            terminals.append(TerminalSpec(id=tid, path=tuple(waypoints), app_type=app_type))
    return terminals


def _parse_catalog(doc, problems) -> list[CriterionDef]:
    catalog = default_catalog()
    known = {c.id for c in catalog}
    for ci, cdoc in enumerate(_field(doc, "criteria", "", problems, list, []) or ()):
        cpath = f"criteria[{ci}]"
        cdoc, cid = _identified(cdoc, cpath, _CRITERION_KEYS, problems)
        if cid is None:
            continue
        if cid in known:
            problems.append(f"{cpath}.id: {cid!r} already defined")
            continue
        known.add(cid)
        before = len(problems)
        source = _field(cdoc, "source", cpath, problems, str, "network")
        polarity = _field(cdoc, "polarity", cpath, problems, str, "")
        unit = _field(cdoc, "unit", cpath, problems, str, "")
        floor = _field(cdoc, "floor", cpath, problems, float, 1e-6)
        if len(problems) > before:
            continue
        if floor <= 0:  # scoring takes the log of max(value, floor)
            problems.append(f"{cpath}.floor: must be > 0")
            continue
        try:
            source = ContextSource(source)
        except ValueError:
            problems.append(f"{cpath}.source: unknown source {source!r}")
            continue
        try:
            polarity = Polarity(polarity)
        except ValueError:
            problems.append(f"{cpath}.polarity: expected beneficial or detrimental")
            continue
        catalog.append(
            CriterionDef(id=cid, source=source, polarity=polarity, unit=unit, floor=float(floor))
        )
    return catalog


def _parse_weights(doc, catalog, problems) -> WeightProfile:
    wdoc = _object(doc.get("weights", {}), "weights", frozenset(("weights", "k")), problems) or {}
    before = len(problems)
    weights = _numbers(wdoc, "weights", "weights", problems)
    k = _field(wdoc, "k", "weights", problems, float, 1.0)
    if len(problems) > before:
        return WeightProfile(weights={})
    profile = WeightProfile(weights=weights, k=float(k))
    try:
        profile.validate(catalog)
    except WeightProfileError as exc:
        problems.append(f"weights: {exc}")
    return profile


def _parse_controller(doc, problems) -> ControllerConfig:
    cdoc = _object(doc.get("controller", {}), "controller", _CONTROLLER_KEYS, problems) or {}
    before = len(problems)
    given = {}
    for name, kind in _CONTROLLER_NUMBERS.items():
        value = _field(cdoc, name, "controller", problems, kind, getattr(_DEFAULT_CONTROLLER, name))
        given[name] = None if value is None else kind(value)
    for name, value in given.items():
        if name not in ("th_sup", "th_inf") and value is not None and value < 0:
            problems.append(f"controller.{name}: must be >= 0")
    if None not in (given["th_sup"], given["th_inf"]) and not given["th_inf"] < given["th_sup"]:
        problems.append("controller.th_inf: must be strictly below controller.th_sup")
    strategy = cdoc.get("strategy", "reactive")
    try:
        given["strategy"] = Strategy(strategy)
    except ValueError:
        problems.append(f"controller.strategy: expected reactive or proactive, got {strategy!r}")
    given["opportunist_on_target"] = _field(
        cdoc, "opportunist_on_target", "controller", problems, bool, False
    )
    given["success_regions"] = _parse_regions(doc, problems)
    given["policy"] = _parse_policy(doc, problems)
    if len(problems) > before:
        return _DEFAULT_CONTROLLER  # the document is rejected
    return ControllerConfig(**given)


def _parse_regions(doc, problems) -> dict:
    regions = {}
    for mid, gdoc in sorted(_members(doc, "success_regions", "", problems).items()):
        rpath = f"success_regions.{mid}"
        if mid not in MEASURED:
            # evaluate() would reject every handoff for want of the measure.
            problems.append(
                f"{rpath}: not measured by the controller (expected one of {', '.join(MEASURED)})"
            )
            continue
        gdoc = _object(gdoc, rpath, _REGION_KEYS, problems)
        if gdoc is None:
            continue
        before = len(problems)
        direction = _field(gdoc, "direction", rpath, problems, str)
        for name in ("bound", "lower", "upper"):
            if name in gdoc:
                _field(gdoc, name, rpath, problems, float)
        if direction is not None:
            try:
                direction = GoalDirection(direction)
            except ValueError:
                problems.append(f"{rpath}.direction: expected one of {_DIRECTIONS}")
            else:
                # keep_within reads lower and upper; every other direction, bound.
                within = direction is GoalDirection.KEEP_WITHIN
                for name in ("bound",) if within else ("lower", "upper"):
                    if name in gdoc:
                        problems.append(f"{rpath}.{name}: not read for direction {direction.value}")
        if len(problems) > before:
            continue
        try:
            goal = GoalSpec(mid, direction, gdoc.get("bound"), gdoc.get("lower"), gdoc.get("upper"))
        except ValueError as exc:
            problems.append(f"{rpath}: {exc}")
            continue
        if direction is GoalDirection.KEEP_WITHIN and goal.lower > goal.upper:
            # No value lies in an empty range, so every handoff would be rejected.
            problems.append(f"{rpath}: lower above upper")
        else:
            regions[mid] = goal
    return regions


def _parse_policy(doc, problems) -> PolicyTable:
    pdoc = _object(doc.get("policy", {}), "policy", frozenset(("entries", "strict")), problems)
    if not pdoc:
        return PolicyTable()
    entries = {}
    for ei, edoc in enumerate(_field(pdoc, "entries", "policy", problems, list, []) or ()):
        epath = f"policy.entries[{ei}]"
        edoc = _object(edoc, epath, _ENTRY_KEYS, problems)
        if edoc is None:
            continue
        layer = edoc.get("layer")
        if type(layer) is not str or layer not in _LAYERS:
            problems.append(f"{epath}.layer: unknown layer {layer!r}")
            continue
        method = _field(edoc, "method", epath, problems, str)
        app_type = _field(edoc, "app_type", epath, problems, str, "*")
        if method is not None and app_type is not None:
            entries[(layer, app_type)] = method
    strict = _field(pdoc, "strict", "policy", problems, bool, False)
    return PolicyTable(entries=entries, defaults={} if strict else DEFAULT_LAYER_METHODS)


def _parse_synthesis(doc, catalog, problems, seed: int) -> ContextSynthesisSpec:
    criteria = {c.id for c in catalog}
    sdoc = _object(doc.get("synthesis", {}), "synthesis", _SYNTHESIS_KEYS, problems) or {}
    mode = sdoc.get("mode", "geometric")
    if mode not in ("geometric", "stochastic"):
        problems.append(f"synthesis.mode: expected geometric or stochastic, got {mode!r}")
        mode = "geometric"
    unread = ("start",) if mode == "geometric" else ("ramps", "waypoints")
    networks = {}
    for net_id, ndoc in sorted(_members(sdoc, "networks", "synthesis", problems).items()):
        npath = f"synthesis.networks.{net_id}"
        ndoc = _object(ndoc, npath, _SIGNAL_KEYS, problems)
        if ndoc is None:
            continue
        for key in unread:
            if key in ndoc:
                problems.append(f"{npath}.{key}: not read in {mode} mode")
        waypoints = {}
        for cid, series in _members(ndoc, "waypoints", npath, problems).items():
            if type(series) is not list or not series:
                problems.append(f"{npath}.waypoints.{cid}: empty series")
                continue
            pts = []
            last_t = None
            for i, pt in enumerate(series):
                if type(pt) is not list or len(pt) != 2 or type(pt[0]) is not int:
                    why = "expected [t, v]"
                else:
                    why = _check_number(pt[1])
                if why is not None:
                    problems.append(f"{npath}.waypoints.{cid}[{i}]: {why}")
                    break
                t, v = pt
                if last_t is not None and t <= last_t:
                    problems.append(f"{npath}.waypoints.{cid}: times must increase")
                    break
                pts.append((t, float(v)))
                last_t = t
            else:
                waypoints[cid] = tuple(pts)
        signals = networks[net_id] = NetworkSignals(
            base=_numbers(ndoc, "base", npath, problems),
            ramps=_numbers(ndoc, "ramps", npath, problems),
            waypoints=waypoints,
            start=_numbers(ndoc, "start", npath, problems),
        )
        # An id the catalog lacks would still be synthesized, and in the
        # stochastic mode draw from the shared generator on every tick.  A
        # start id must have a base, so checking the base checks it too.
        for key in ("base", "ramps", "waypoints"):
            for cid in getattr(signals, key):
                if cid not in criteria:
                    problems.append(f"{npath}.{key}.{cid}: unknown criterion")
        for cid in signals.start:
            if cid not in signals.base:
                problems.append(f"{npath}.start.{cid}: has no base")
    rho = _field(sdoc, "ar1_rho", "synthesis", problems, float, 0.9)
    sigma = _field(sdoc, "noise_sigma", "synthesis", problems, float, 0.0)
    if rho is not None and not (0.0 <= rho < 1.0):
        problems.append("synthesis.ar1_rho: must lie in [0, 1)")
    if sigma is not None and sigma < 0:
        problems.append("synthesis.noise_sigma: must be >= 0")
    return ContextSynthesisSpec(
        mode=mode, networks=networks, ar1_rho=float(rho or 0.0), noise_sigma=float(sigma or 0.0),
        seed=seed,
    )


def from_dict(doc: Mapping) -> Scenario:
    """Build a validated Scenario from a parsed JSON document."""
    problems: list[str] = []
    if type(doc) is not dict:
        raise ScenarioError(["document: expected a JSON object"])
    _object(doc, "", _TOP_KEYS, problems)

    seed = _field(doc, "seed", "", problems, int, 0) or 0
    duration = doc.get("duration_ms")
    tick = doc.get("tick_ms")
    if type(duration) is not int or duration < 0:
        problems.append("duration_ms: required non-negative integer")
        duration = 0
    if type(tick) is not int or tick <= 0:
        problems.append("tick_ms: required positive integer")
        tick = 1
    if duration % tick != 0:
        problems.append("duration_ms: must be a multiple of tick_ms")

    topo = _parse_topology(doc, problems)
    terminals = _parse_terminals(doc, problems)
    catalog = _parse_catalog(doc, problems)
    weights = _parse_weights(doc, catalog, problems)
    controller = _parse_controller(doc, problems)
    synthesis = _parse_synthesis(doc, catalog, problems, seed)

    # Every synthesized network must be a station, and every weighted
    # criterion other than RSS must be synthesized for every station,
    # otherwise scoring would fail mid-run.
    if topo is not None:
        station_ids = {bs.id for bs in topo.stations}
        for net_id in synthesis.networks:
            if net_id not in station_ids:
                problems.append(f"synthesis.networks.{net_id}: names no station")
        weighted = sorted(set(weights.weights) - {"RSS"})
        for bs in topo.stations:
            signals = synthesis.networks.get(bs.id)
            have = () if signals is None else {*signals.base, *signals.ramps, *signals.waypoints}
            missing = [w for w in weighted if w not in have]
            if missing:
                problems.append(f"synthesis.networks.{bs.id}: missing weighted criteria {missing}")
    # The pass-through metric values, by metric id.
    constants = _numbers(doc, "metrics_constants", "", problems, frozenset(PASS_THROUGH), "constant")

    if problems:
        raise ScenarioError(problems)
    return Scenario(
        seed=seed, duration_ms=duration, tick_ms=tick, topology=topo,
        terminals=tuple(terminals), weights=weights, controller=controller,
        synthesis=synthesis, catalog=tuple(catalog), metrics_constants=constants,
        raw=dict(doc),
    )


def parse_controller(doc: Mapping) -> ControllerConfig:
    """The controller configuration that ``from_dict`` builds from a
    document's ``controller``, ``success_regions`` and ``policy``, reading
    no other key.  For a document valid in every other part it raises
    ScenarioError with the problems ``from_dict`` reports, in the same
    order, so a sweep checks a grid point without parsing it whole."""
    problems: list[str] = []
    controller = _parse_controller(doc, problems)
    if problems:
        raise ScenarioError(problems)
    return controller


def load_scenario(path: str | Path) -> Scenario:
    """Read, parse, and validate a scenario file.  A file that is not UTF-8
    JSON within the parser's limits raises ScenarioError, as an invalid
    document does; one that cannot be read raises OSError."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ScenarioError([f"byte {exc.start}: not UTF-8 text ({exc.reason})"]) from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError([f"line {exc.lineno}: {exc.msg}"]) from exc
    except ValueError as exc:  # an integer longer than the interpreter converts
        raise ScenarioError([f"not parseable as JSON: {exc}"]) from exc
    except RecursionError as exc:
        raise ScenarioError(["not parseable as JSON: nested too deeply"]) from exc
    return from_dict(doc)
