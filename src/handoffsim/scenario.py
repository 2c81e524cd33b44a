"""Scenario documents: the JSON schema, parsing, and validation.

A scenario bundles everything one simulation run needs: the topology, the
terminals and their movement paths, the scoring weights, the controller
configuration, the context synthesis spec, and the run horizon.  Documents
are plain JSON; ``load_scenario`` is ``from_dict(read_document(path))``:
it parses and validates in one pass and raises ScenarioError carrying every
diagnostic it found, each anchored to the offending field path (or input
line for parse errors).  Each object of a document accepts a fixed set of
keys and each value one JSON type, so a key either changes the run or is
rejected.  A Scenario holds only the parsed values, not the document.

The controller's configuration types live here too, beside the rest of
what a parsed document holds, so loading a scenario does not import the
handoff state machine that reads them (``controller``).
"""

from __future__ import annotations

import json
import math
import sys
from enum import Enum
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
from .desirability import WeightProfile, desirability, weighted_terms
from .errors import PolicyGapError, ScenarioError
from .synthesis import ContextSynthesisSpec, NetworkSignals
from .taxonomy import Layer, StationTypes
from .topology import TIER_DEFAULTS, BaseStation, Topology, rss_at, tier_path_loss

Position = tuple[float, float]


class Strategy(Enum):
    REACTIVE = "reactive"
    PROACTIVE = "proactive"


DEFAULT_LAYER_METHODS: Mapping[Layer, str] = {
    Layer.L1: "MAHO",
    Layer.L2: "MAHO",
    Layer.L3: "MIP",
    Layer.L4_7: "SIP",
}


class PolicyTable(NamedTuple):
    """Maps (layer, application type) to a handoff method label.

    Lookup tries the exact key first, then the wildcard ("*") application
    type, then the per-layer defaults.  A user-supplied table with no
    applicable entry and no default for the layer is a configuration gap
    and raises.
    """

    entries: Mapping[tuple[str, str], str] = {}
    defaults: Mapping[Layer, str] = DEFAULT_LAYER_METHODS

    def lookup(self, layer: Layer, app_type: str) -> str:
        for key in ((layer.value, app_type), (layer.value, "*")):
            if key in self.entries:
                return self.entries[key]
        if layer in self.defaults:
            return self.defaults[layer]
        raise PolicyGapError((layer.value, app_type))


DEFAULT_POLICY = PolicyTable()


class ControllerConfig(NamedTuple):
    hysteresis_delta: float = 0.5
    th_sup: float = 8.0
    th_inf: float = 2.0
    dwell_sp: int = 200
    prep_latency: int = 100
    exec_latency: int = 100
    eval_latency: int = 100
    strategy: Strategy = Strategy.REACTIVE
    # Alternative opportunist reading: judge the candidate's utility against
    # th_sup instead of the serving network's.  Off by default.
    opportunist_on_target: bool = False
    success_regions: Mapping[str, GoalSpec] = {}
    policy: PolicyTable = DEFAULT_POLICY


# The measures the controller's ``evaluate`` grades a finished handoff on:
# the only metric ids a success region can name.
MEASURED = ("UF", "IL", "DLat", "ExLat", "EvLat", "HOL", "ImpR")


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
# The controller's numeric fields and their types, in the order the init
# record lists them; a sweep's numeric grid axes parse with these types.
CONTROLLER_NUMBERS = {
    "hysteresis_delta": float, "th_sup": float, "th_inf": float,
    "dwell_sp": int, "prep_latency": int, "exec_latency": int, "eval_latency": int,
}
_CONTROLLER_KEYS = frozenset((*CONTROLLER_NUMBERS, "strategy", "opportunist_on_target"))
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
# Times are integers, but movement and synthesis divide and scale them as
# floats.
_NO_FLOAT = "too large for a float"
_SIDE_SUM_TOLERANCE = 1e-9  # how far a polarity side's weights may sum from 1

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


def _unique(value: str, seen: set, path: str, what: str, problems) -> None:
    """Report ``value`` at ``path`` if ``seen`` holds it already, then add it."""
    if value in seen:
        problems.append(f"{path}: duplicate {what} id {value!r}")
    seen.add(value)


def _parse_topology(doc, problems) -> Optional[Topology]:
    """The topology, or None when it has a problem.  Provider, net, station
    and channel ids are each unique across the whole topology."""
    reported = len(problems)
    topo_doc = doc.get("topology")
    if type(topo_doc) is not dict:
        problems.append("topology: missing or not an object")
        return None
    _object(topo_doc, "topology", frozenset(("providers",)), problems)
    stations = []
    seen_providers, seen_nets, seen_stations, seen_channels = set(), set(), set(), set()
    for pi, pdoc in enumerate(_field(topo_doc, "providers", "topology", problems, list, []) or ()):
        ppath = f"topology.providers[{pi}]"
        pdoc, pid = _identified(pdoc, ppath, _PROVIDER_KEYS, problems)
        if pid is None:
            continue
        _unique(pid, seen_providers, f"{ppath}.id", "provider", problems)
        for ni, ndoc in enumerate(_field(pdoc, "nets", ppath, problems, list, []) or ()):
            npath = f"{ppath}.nets[{ni}]"
            ndoc, nid = _identified(ndoc, npath, _NET_KEYS, problems)
            if nid is None:
                continue
            _unique(nid, seen_nets, f"{npath}.id", "net", problems)
            for si, sdoc in enumerate(_field(ndoc, "stations", npath, problems, list, []) or ()):
                spath = f"{npath}.stations[{si}]"
                sdoc, sid = _identified(sdoc, spath, _STATION_KEYS, problems)
                if sid is None:
                    continue
                _unique(sid, seen_stations, f"{spath}.id", "station", problems)
                before = len(problems)
                pos = sdoc.get("position")
                why = _check_xy(pos)
                if why is not None:
                    problems.append(f"{spath}.position: {why}")
                tech = _field(sdoc, "technology", spath, problems, str)
                tier = _field(sdoc, "tier", spath, problems, str, "macro")
                if tier is not None and tier not in TIER_DEFAULTS:
                    problems.append(f"{spath}.tier: unknown tier {tier!r}")
                radius = _field(sdoc, "radius", spath, problems, float) if "radius" in sdoc else None
                if radius is not None and radius <= 0:
                    problems.append(f"{spath}.radius: non-positive radius")
                channels = _field(sdoc, "channels", spath, problems, list, [])
                if channels == []:
                    problems.append(f"{spath}.channels: lists no channels")
                for ci, channel in enumerate(channels or ()):
                    cpath = f"{spath}.channels[{ci}]"
                    if type(channel) is not str:
                        problems.append(f"{cpath}: must be a string")
                    else:
                        _unique(channel, seen_channels, cpath, "channel", problems)
                if len(problems) == before:
                    stations.append(BaseStation(
                        id=sid, net_id=nid, provider_id=pid, position=(float(pos[0]), float(pos[1])),
                        technology=tech, tier=tier, radius=radius, channels=tuple(channels),
                    ))
    # Per-tier overrides of the path-loss parameters.
    tiers = _object(doc.get("path_loss", {}), "path_loss", frozenset(TIER_DEFAULTS), problems, "tier")
    path_loss = {
        tier: _numbers(tiers, tier, "path_loss", problems, _PATH_LOSS_KEYS)
        for tier in tiers or () if tier in TIER_DEFAULTS
    }
    if not seen_stations:  # a station listed with a problem is reported as that
        problems.append("topology: no base stations defined")
    if len(problems) > reported:
        return None
    return Topology(stations=tuple(stations), path_loss_overrides=path_loss)


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
        _unique(tid, seen, f"{tpath}.id", "terminal", problems)
        if tid == "all":
            problems.append(f'{tpath}.id: "all" is reserved for the pooled row')
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
            if not abs(t) <= _FLOAT_MAX:
                problems.append(f"{tpath}.path[{wi}]: time {_NO_FLOAT}")
                continue
            if last_t is not None and t <= last_t:
                problems.append(f"{tpath}.path[{wi}]: waypoint times must increase")
            elif last_t is not None and t - last_t > _FLOAT_MAX:
                problems.append(f"{tpath}.path[{wi}]: time since the last waypoint {_NO_FLOAT}")
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
    """The weights: each in [0, 1] and naming a criterion of ``catalog``,
    each polarity side that has any summing to 1, and K >= 0 and small
    enough that no score of finite values can overflow.

    ``desirability`` adds or subtracts ``(K + W) * log10(max(value, floor))``
    per weighted term.  Each rounded product, sum and difference is
    monotone in each operand, so wherever ``math.log10`` is non-decreasing
    every score lies between the scores of two extreme assignments:
    beneficial values at ``_FLOAT_MAX`` and detrimental ones at their floor,
    then the reverse.  A partial sum that overflows stays infinite or turns
    NaN, so the check, that both extremes score finitely, is exact."""
    wdoc = _object(doc.get("weights", {}), "weights", frozenset(("weights", "k")), problems) or {}
    before = len(problems)
    weights = _numbers(wdoc, "weights", "weights", problems)
    k = _field(wdoc, "k", "weights", problems, float, 1.0)
    if len(problems) > before:
        return WeightProfile(weights={})
    profile = WeightProfile(weights=weights, k=float(k))
    if k < 0:
        problems.append(f"weights.k: constant K must be >= 0, got {profile.k!r}")
    polarity = {c.id: c.polarity for c in catalog}
    sums = {}
    ranged = len(problems)
    for cid, w in weights.items():
        if cid not in polarity:
            problems.append(f"weights.weights.{cid}: unknown criterion {cid!r}")
        elif not 0.0 <= w <= 1.0:
            problems.append(f"weights.weights.{cid}: outside [0, 1]: {w!r}")
        else:
            sums[polarity[cid]] = sums.get(polarity[cid], 0.0) + w
    if len(problems) == ranged:  # a side's sum means nothing while a weight is invalid
        for side in Polarity:
            if side in sums and abs(sums[side] - 1.0) > _SIDE_SUM_TOLERANCE:
                problems.append(
                    f"weights.weights: {side.value} weights sum to {sums[side]!r}, expected 1.0"
                )
        terms = weighted_terms(profile, catalog)
        extremes = ({cid: _FLOAT_MAX if beneficial is high else floor
                     for cid, _, floor, beneficial in terms} for high in (True, False))
        if k >= 0 and not all(math.isfinite(desirability(v, terms)) for v in extremes):
            problems.append(f"weights.k: scores may not stay finite with K = {profile.k!r}")
    return profile


def _parse_controller(doc, problems) -> ControllerConfig:
    cdoc = _object(doc.get("controller", {}), "controller", _CONTROLLER_KEYS, problems) or {}
    before = len(problems)
    given = {}
    for name, kind in CONTROLLER_NUMBERS.items():
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
                reads = ("lower", "upper") if within else ("bound",)
                for name in ("bound", "lower", "upper"):
                    if name in reads and name not in gdoc:
                        problems.append(f"{rpath}.{name}: " + (
                            "keep_within needs lower and upper" if within
                            else f"direction {direction.value} needs a bound"
                        ))
                    elif name not in reads and name in gdoc:
                        problems.append(f"{rpath}.{name}: not read for direction {direction.value}")
        if len(problems) > before:
            continue
        goal = GoalSpec(direction, gdoc.get("bound"), gdoc.get("lower"), gdoc.get("upper"))
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


def _check_policy_reach(topo: Topology, terminals, policy: PolicyTable, problems) -> None:
    """Report each (layer, app_type) pair that some handoff can reach and
    ``policy`` has no method for.  Two stations share a net, else a
    provider, else only the topology, and that group's first station shares
    no smaller group with one of them; so pairing the first station of each
    group with each later one reaches every layer that some pair reaches."""
    types, first, reached = StationTypes(topo.stations), {}, set()
    for bs in topo.stations:
        for group in (("net", bs.net_id), ("provider", bs.provider_id), ("topology",)):
            head = first.setdefault(group, bs.id)
            if head != bs.id:
                reached.add(types[head, bs.id].layer)
    app_types = sorted({term.app_type for term in terminals})
    for layer in Layer:
        if layer not in reached:
            continue
        for app_type in app_types:
            try:
                policy.lookup(layer, app_type)
            except PolicyGapError as gap:
                problems.append(
                    f"policy.entries: strict table has no entry for {gap.key!r},"
                    " which a handoff can reach"
                )


def _parse_synthesis(doc, criteria: set, weighted, problems) -> ContextSynthesisSpec:
    """The synthesis spec; ``criteria`` holds the catalog's criterion ids,
    ``weighted`` those a score reads, other than RSS."""
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
        rho = None
    if sigma is not None and sigma < 0:
        problems.append("synthesis.noise_sigma: must be >= 0")
        sigma = None
    if mode == "stochastic" and rho is not None and sigma is not None:
        _check_walk_range(networks, weighted, rho, sigma, problems)
    return ContextSynthesisSpec(
        mode=mode, networks=networks, ar1_rho=float(rho or 0.0), noise_sigma=float(sigma or 0.0),
    )


# random.gauss, and the walk that draws as it does, draws
# cos(2*pi*u) * sqrt(-2 * log(1 - v)), u and v from random(), which is
# below 1 by at least 2**-53: no draw exceeds this.
_GAUSS_MAX = math.sqrt(-2.0 * math.log(2.0 ** -53))


def _check_walk_range(networks, weighted, rho: float, sigma: float, problems) -> None:
    """Report each weighted stochastic signal whose walk can leave the
    finite range.  With rho in [0, 1), ``|x - base|`` never exceeds ``M``,
    the larger of the starting offset and ``sigma * _GAUSS_MAX / (1 - rho)``,
    so the walk stays within ``|base| + M``; 1e-9 of it covers rounding.
    Only a gauss draw within a few ulps of ``_GAUSS_MAX`` brings the walk
    within rounding of that bound, so an overflow without the margin needs
    such a draw.  No test input can make one; the margin stays, argued
    rather than pinned by a test."""
    for net_id, signals in networks.items():
        for cid in weighted:
            base = signals.base.get(cid)
            if base is None:
                continue  # reported as a missing weighted criterion
            reach = max(abs(signals.start.get(cid, base) - base), sigma * _GAUSS_MAX / (1.0 - rho))
            if not (abs(base) + reach) * (1.0 + 1e-9) <= _FLOAT_MAX:
                problems.append(f"synthesis.networks.{net_id}.base.{cid}: walk may not stay finite")


def _check_rss_range(topo: Topology, problems) -> None:
    """Report each overridden tier whose RSS may not stay finite at one of
    its stations.  A covered position's ``hypot(dx, dy)`` is the one that
    coverage compared with the radius, so ``rss_at`` computes it at most at
    the radius, and wherever ``math.log10`` is non-decreasing ``rss_at``
    is monotone in that distance: every RSS of the station lies between
    ``rss_at`` at ``d0`` and at the radius.  At ``d0`` it is the transmit
    power, finite, unless ``10 n`` is not finite, and then it is not finite
    at the radius either; so the check, at the radius alone, is exact.  A
    tier with no station reaches no RSS and is not checked."""
    origin = (0.0, 0.0)
    for tier in topo.path_loss_overrides:
        params = tier_path_loss(tier, topo.path_loss_overrides)
        if not all(
            math.isfinite(rss_at((bs.coverage_radius, 0.0), bs._replace(position=origin), params))
            for bs in topo.stations if bs.tier == tier
        ):
            problems.append(f"path_loss.{tier}.exponent: RSS may not stay finite")


def _check_geometric_range(
    synthesis: ContextSynthesisSpec, weighted, duration: int, tick: int, problems
) -> None:
    """Report each weighted geometric signal that is not finite at some
    tick of the run, where scoring would reject it mid-run.  A ramp is
    monotone in t, so the last tick bounds it; a waypoint series overflows
    only on a segment whose rise is not finite, once a tick reaches it."""
    if duration <= 0:
        return  # no tick samples anything
    last = duration - tick
    for net_id, signals in synthesis.networks.items():
        for cid in weighted:
            series = signals.waypoints.get(cid)
            if series is None:
                value = signals.base.get(cid, 0.0) + signals.ramps.get(cid, 0.0) * last
                if not abs(value) <= _FLOAT_MAX:
                    problems.append(
                        f"synthesis.networks.{net_id}.ramps.{cid}: not finite by {last} ms")
                continue
            values = [v for _, v in series]
            if abs(max(values) - min(values)) <= _FLOAT_MAX:
                continue  # no segment's rise can overflow
            for (t0, v0), (t1, v1) in zip(series, series[1:]):
                reached = max(0, (t0 // tick + 1) * tick) <= min(t1, last)  # a tick in (t0, t1]
                if reached and not abs(v1 - v0) <= _FLOAT_MAX:
                    problems.append(f"synthesis.networks.{net_id}.waypoints.{cid}: "
                                    f"not finite between {t0} and {t1} ms")
                    break


def from_dict(doc: Mapping) -> Scenario:
    """Build a validated Scenario from a parsed JSON document, keeping no
    reference to the document."""
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
    elif duration > _FLOAT_MAX:
        problems.append(f"duration_ms: {_NO_FLOAT}")
        duration = 0
    if type(tick) is not int or tick <= 0:
        problems.append("tick_ms: required positive integer")
        tick = 1
    elif tick > _FLOAT_MAX:
        problems.append(f"tick_ms: {_NO_FLOAT}")
        tick = 1
    if duration % tick != 0:
        problems.append("duration_ms: must be a multiple of tick_ms")

    topo = _parse_topology(doc, problems)
    terminals = _parse_terminals(doc, problems)
    catalog = _parse_catalog(doc, problems)
    criteria = {c.id for c in catalog}
    weights = _parse_weights(doc, catalog, problems)
    controller = _parse_controller(doc, problems)
    # Every synthesized network must be a station, and every weighted
    # criterion other than RSS must be synthesized for every station and
    # stay finite, otherwise scoring would fail mid-run.  An unknown
    # weighted criterion is reported once, at its weight.
    weighted = sorted(w for w in weights.weights if w != "RSS" and w in criteria)
    synthesis = _parse_synthesis(doc, criteria, weighted, problems)
    if synthesis.mode == "geometric":
        _check_geometric_range(synthesis, weighted, duration, tick, problems)
    if topo is not None:
        if "RSS" in weights.weights:  # only then does a run compute RSS
            _check_rss_range(topo, problems)
        station_ids = {bs.id for bs in topo.stations}
        for net_id in synthesis.networks:
            if net_id not in station_ids:
                problems.append(f"synthesis.networks.{net_id}: names no station")
        for bs in topo.stations:
            signals = synthesis.networks.get(bs.id)
            have = () if signals is None else {*signals.base, *signals.ramps, *signals.waypoints}
            missing = [w for w in weighted if w not in have]
            if missing:
                problems.append(f"synthesis.networks.{bs.id}: missing weighted criteria {missing}")
        # Only a strict table lacks a method for some layer.
        if not controller.policy.defaults:
            _check_policy_reach(topo, terminals, controller.policy, problems)
    # The pass-through metric values, by metric id.
    constants = _numbers(doc, "metrics_constants", "", problems, frozenset(PASS_THROUGH), "constant")

    if problems:
        raise ScenarioError(problems)
    return Scenario(
        seed=seed, duration_ms=duration, tick_ms=tick, topology=topo,
        terminals=tuple(terminals), weights=weights, controller=controller,
        synthesis=synthesis, catalog=tuple(catalog), metrics_constants=constants,
    )


def parse_controller(doc: Mapping) -> ControllerConfig:
    """The controller configuration that ``from_dict`` builds from a
    document's ``controller``, ``success_regions`` and ``policy``, reading
    no other key.  For a document valid in every other part it raises
    ScenarioError with the problems ``from_dict`` reports, in the same
    order, so a sweep checks a grid point without parsing it whole.  A
    strict policy is not checked against the layers a handoff can reach:
    that needs the topology and terminals, which a grid point shares with
    the document ``from_dict`` checked."""
    problems: list[str] = []
    controller = _parse_controller(doc, problems)
    if problems:
        raise ScenarioError(problems)
    return controller


def read_document(path: str | Path):
    """The JSON document in a scenario file, unparsed as a scenario.  A file
    that is not UTF-8 JSON within the parser's limits raises ScenarioError,
    as an invalid document does; one that cannot be read raises OSError."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ScenarioError([f"byte {exc.start}: not UTF-8 text ({exc.reason})"]) from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError([f"line {exc.lineno}: {exc.msg}"]) from exc
    except ValueError as exc:  # an integer longer than the interpreter converts
        raise ScenarioError([f"not parseable as JSON: {exc}"]) from exc
    except RecursionError as exc:
        raise ScenarioError(["not parseable as JSON: nested too deeply"]) from exc


def load_scenario(path: str | Path) -> Scenario:
    """Read, parse, and validate a scenario file: ``from_dict`` of its
    ``read_document``."""
    return from_dict(read_document(path))
