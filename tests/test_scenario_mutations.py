"""Every single-point mutation of a bundled scenario, or of ``crossing.json``
with every key set, is rejected with field paths, or parses to a scenario
that runs to completion.

The mutations are enumerated, not sampled: every value set to each JSON type
it is not, every key deleted, and an unknown key added to every object; and
every float and integer set to each extreme value of its type, after which
an accepted scenario must also trace only finite floats.  Each accepted
scenario's run has RUN_LIMIT_S seconds of wall time: one that does not end
fails its case instead of hanging the suite.
"""

import copy
import json
import math
import re
import signal
from pathlib import Path

import pytest

from handoffsim import engine
from handoffsim.errors import ScenarioError
from handoffsim.scenario import from_dict

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

# One value of each JSON type: null, boolean, string, float, integer, array, object.
JSON_VALUES = (None, True, "x", 1.5, 7, [], {})
UNKNOWN_KEY = "zz_unknown"
TOP_KEYS = {
    "seed", "duration_ms", "tick_ms", "topology", "path_loss", "terminals", "criteria",
    "weights", "controller", "success_regions", "policy", "synthesis", "metrics_constants",
}
# "<key>(.<key>|[<index>])*: <message>", rooted at a top-level key.
FIELD_PATH = re.compile(r"^(\w+)(\.\w+|\[\d+\])*: ")
# Each bundled scenario runs in well under a second.
RUN_LIMIT_S = 10


def _nodes(node, path=()):
    """(path, value) of every value below the root, parents first."""
    if type(node) is dict:
        children = node.items()
    elif type(node) is list:
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield path + (key,), child
        yield from _nodes(child, path + (key,))


def _edited(doc, path, edit):
    out = copy.deepcopy(doc)
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    edit(parent, path[-1])
    return out


def _set(value):
    def edit(parent, key):
        parent[key] = copy.deepcopy(value)
    return edit


def _delete(parent, key):
    del parent[key]


def _add_unknown(parent, key):
    parent[key][UNKNOWN_KEY] = 1


def mutations(doc):
    """(description, mutated document) for every single-point mutation."""
    root = copy.deepcopy(doc)
    root[UNKNOWN_KEY] = 1
    yield f"add {UNKNOWN_KEY}", root
    for path, value in _nodes(doc):
        for other in JSON_VALUES:
            if type(other) is not type(value):
                yield f"set {list(path)} to {json.dumps(other)}", _edited(doc, path, _set(other))
        if type(path[-1]) is str:
            yield f"delete {list(path)}", _edited(doc, path, _delete)
        if type(value) is dict:
            yield f"add {UNKNOWN_KEY} to {list(path)}", _edited(doc, path, _add_unknown)


def _floats(node):
    """Every float below ``node``, a trace payload."""
    if type(node) is float:
        yield node
    elif type(node) is dict:
        for child in node.values():
            yield from _floats(child)
    elif type(node) is list:
        for child in node:
            yield from _floats(child)


class _RunTimedOut(BaseException):
    """Raised into a run that outlives RUN_LIMIT_S; a BaseException, so no
    ``except Exception`` on the way swallows it."""


def _time_out(signum, frame):
    raise _RunTimedOut


def _run_limited(scenario):
    """``engine.run(scenario)`` under a RUN_LIMIT_S wall-clock limit."""
    previous = signal.signal(signal.SIGALRM, _time_out)
    signal.setitimer(signal.ITIMER_REAL, RUN_LIMIT_S)
    try:
        return engine.run(scenario)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _outcome(doc, finite=False):
    """("rejected" or "ran", None), or (None, why the document breaks the
    parser's contract).  With ``finite``, a run that traces a float that
    is not finite breaks it too."""
    try:
        scenario = from_dict(doc)
    except ScenarioError as exc:
        unanchored = [
            p for p in exc.problems
            if not (m := FIELD_PATH.match(p)) or m.group(1) not in TOP_KEYS | {UNKNOWN_KEY}
        ]
        if unanchored:
            return None, f"problems without a field path: {unanchored}"
        return "rejected", None
    except Exception as exc:
        return None, f"from_dict raised {exc!r}"
    try:
        trace = _run_limited(scenario)
    except _RunTimedOut:
        return None, f"accepted, then engine.run did not end within {RUN_LIMIT_S} s"
    except Exception as exc:
        return None, f"accepted, then engine.run raised {exc!r}"
    if finite:
        for rec in trace.records:
            bad = [v for v in _floats(rec.payload) if not math.isfinite(v)]
            if bad:
                return None, f"accepted, then traced {bad[0]!r} at {rec.t} ms in {rec.kind}"
    return "ran", None


def _load(name):
    return lambda: json.loads((SCENARIO_DIR / name).read_text())


def _every_key(mode):
    """crossing.json with every key the bundled scenarios leave out set: a
    detrimental criterion ``Z`` with its floor, RSS weighted under a macro
    path-loss override, a station radius, ``dwell_sp`` 200 and
    ``hysteresis_delta`` 0.05, success regions, a strict policy, a moving
    terminal and all four metrics constants.  Geometric, ``bs_a``'s ``Q``
    follows waypoints; stochastic, the walk starts from ``start`` values."""
    doc = json.loads((SCENARIO_DIR / "crossing.json").read_text())
    doc["topology"]["providers"][0]["nets"][0]["stations"][0]["radius"] = 900.0
    doc["path_loss"] = {"macro": {"tx_power_dbm": 60.0, "exponent": 2.2}}
    doc["terminals"][0]["path"] = [[0, [0.0, 0.0]], [12000, [60.0, 0.0]]]
    doc["criteria"].append(
        {"id": "Z", "source": "network", "polarity": "detrimental", "unit": "ms", "floor": 1.0})
    doc["weights"] = {"k": 0.0, "weights": {"Q": 0.6, "RSS": 0.4, "Z": 1.0}}
    doc["controller"].update(dwell_sp=200, hysteresis_delta=0.05, th_sup=2.0,
                             opportunist_on_target=True)
    doc["success_regions"] = {"ImpR": {"direction": "maximize", "bound": 1.0},
                              "IL": {"direction": "keep_within", "lower": 0.0, "upper": 500.0}}
    doc["policy"] = {"strict": True, "entries": [
        {"layer": "L3", "app_type": "video", "method": "MIP"},
        {"layer": "L3", "app_type": "*", "method": "SIP"},
    ]}
    doc["metrics_constants"] = {"AL": 1.0, "SO": 0.5, "SSO": 0.25, "DAR": 1.0}
    if mode == "geometric":
        doc["synthesis"]["networks"] = {
            "bs_a": {"base": {"Z": 20.0}, "waypoints": {"Q": [[0, 100000.0], [12000, 5000.0]]}},
            "bs_b": {"base": {"Q": 10000.0, "Z": 30.0}, "ramps": {"Q": 10.0}},
        }
    else:
        doc["synthesis"] = {"mode": "stochastic", "ar1_rho": 0.9, "noise_sigma": 2000.0,
                            "networks": {
            "bs_a": {"base": {"Q": 60000.0, "Z": 20.0}, "start": {"Q": 90000.0}},
            "bs_b": {"base": {"Q": 50000.0, "Z": 30.0}, "start": {"Z": 10.0}},
        }}
    return doc


EVERY_KEY = {
    "every-key": lambda: _every_key("geometric"),
    "every-key-stochastic": lambda: _every_key("stochastic"),
}
DOCUMENTS = {"crossing.json": _load("crossing.json"), "noisy.json": _load("noisy.json"),
             **EVERY_KEY}


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_every_mutation_is_rejected_with_paths_or_runs(name):
    doc = DOCUMENTS[name]()
    total, counts, failures = 0, {"rejected": 0, "ran": 0}, []
    for what, mutated in mutations(doc):
        total += 1
        verdict, why = _outcome(mutated)
        if verdict is None:
            failures.append(f"{what}: {why}")
        else:
            counts[verdict] += 1
        # Every object has a fixed set of keys: base values, ramps,
        # waypoints and start values are keyed by the catalog's criteria.
        if verdict == "ran" and what.startswith(f"add {UNKNOWN_KEY}"):
            failures.append(f"{what}: the unknown key was accepted")
    print(f"{name}: {total} mutations, {counts}, {len(failures)} failures")
    assert total > 500
    assert not failures, "\n".join(failures[:20]) + f"\n... {len(failures)} of {total}"


# The extremes of a float: the largest magnitudes, the smallest positive
# subnormal, zero, and a negative; and of an integer, magnitudes no float
# can hold.
EXTREMES = {
    float: (1e308, -1e308, 5e-324, 0.0, -1.0),
    int: (10**400, -10**400),
}


def _rss_weighted_crossing():
    """crossing.json with RSS weighted and a macro path-loss override."""
    doc = json.loads((SCENARIO_DIR / "crossing.json").read_text())
    doc["weights"]["weights"] = {"Q": 0.5, "RSS": 0.5}
    doc["path_loss"] = {"macro": {"tx_power_dbm": -40.0, "exponent": 3.0}}
    return doc


_EXTREME_DOCUMENTS = {
    "crossing": _load("crossing.json"),
    "noisy": _load("noisy.json"),
    "crossing-rss": _rss_weighted_crossing,
    **EVERY_KEY,
}


@pytest.mark.parametrize("name", sorted(_EXTREME_DOCUMENTS))
def test_every_extreme_float_is_rejected_with_paths_or_traces_finitely(name):
    """Integer leaves are set too, to magnitudes no float can hold: a
    ``duration_ms``, ``tick_ms`` or path time of ``10**400`` must be
    rejected at its path, not overflow or run without end."""
    doc = _EXTREME_DOCUMENTS[name]()
    total, failures = 0, []
    for path, value in _nodes(doc):
        for extreme in EXTREMES.get(type(value), ()):
            total += 1
            verdict, why = _outcome(_edited(doc, path, _set(extreme)), finite=True)
            if verdict is None:
                failures.append(f"set {list(path)} to {extreme!r}: {why}")
    print(f"{name}: {total} extreme values, {len(failures)} failures")
    assert total >= 50
    assert not failures, "\n".join(failures)
