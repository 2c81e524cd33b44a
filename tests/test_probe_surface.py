"""Every name the benchmark's probes replace exists in the program.

``perfbench/tracer.py`` wraps functions as their callers see them, for
example ``cli.compute_metrics``; a refactor that renamed one would make
every benchmark repetition raise.  This reads the probe table from that
file, without changing it, so such a rename fails here instead.
"""

import importlib
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    try:
        yield importlib.import_module("tracer")
    finally:
        sys.modules.pop("tracer", None)


def test_every_probed_name_is_callable(tracer):
    targets = tracer._targets()
    assert targets
    for name, pairs in targets.items():
        for owner, attr in pairs:
            assert callable(getattr(owner, attr, None)), f"{name}: {owner.__name__}.{attr}"


def test_the_probes_install_and_come_off(tracer):
    pairs = [pair for pairs in tracer._targets().values() for pair in pairs]
    before = [getattr(owner, attr) for owner, attr in pairs]
    with tracer.Tracer():
        assert all(getattr(o, a) is not f for (o, a), f in zip(pairs, before))
    assert [getattr(owner, attr) for owner, attr in pairs] == before


SCENARIO = Path(__file__).resolve().parent.parent / "scenarios" / "crossing.json"


def _count_calls(monkeypatch, pairs) -> list:
    """Wrap each (owner, attribute) so that a call appends its name."""
    calls = []
    for owner, attr in pairs:
        real = getattr(owner, attr)

        def counting(*args, _real=real, _name=f"{owner.__name__}.{attr}", **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counting)
    return calls


def test_a_serial_sweep_probes_each_point_once(tracer, monkeypatch, capsys):
    """``sweep.point`` is called once per grid point, and parsing stays out
    of it.  A batch's points run in one engine pass, so what it times is a
    point's outcome turned into its fold results, not the point's run."""
    from handoffsim import cli

    targets = tracer._targets()
    points = _count_calls(monkeypatch, targets["sweep.point"])
    parses = _count_calls(
        monkeypatch, [(owner, attr) for owner, attr in targets["scenario.from_dict"]
                      if owner is cli]
    )
    grid = "delta=0,0.5;strategy=reactive,proactive"
    assert cli.main(["sweep", str(SCENARIO), "--grid", grid, "--workers", "1"]) == 0
    capsys.readouterr()
    assert points == ["handoffsim.cli._sweep_point"] * 4
    assert len(parses) <= 4


def test_run_probes_the_engine_and_the_fold_once(tracer, monkeypatch, tmp_path, capsys):
    """``sim_ticks_per_s`` times one engine call of a traced run, the one the
    benchmark times, and ``metrics_s`` one fold call plus one CSV rendering,
    so no part of the fold can run outside what it times.  With
    ``--no-trace`` the fold happens in the engine's record sink, so only the
    engine and the rendering are called."""
    from handoffsim import cli

    targets = tracer._targets()
    calls = _count_calls(
        monkeypatch,
        targets["engine.run"] + targets["metrics.compute_metrics"] + targets["metrics.to_csv"],
    )
    argv = ["run", str(SCENARIO), "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    assert sorted(calls) == [
        "handoffsim.cli.compute_metrics", "handoffsim.cli.snapshots_to_csv",
        "handoffsim.engine.run",
    ]
    calls.clear()
    assert cli.main(argv + ["--no-trace"]) == 0
    capsys.readouterr()
    assert calls == ["handoffsim.engine.run", "handoffsim.cli.snapshots_to_csv"]


ENGINE_CHILDREN = ("topology.coverage", "synthesis.advance_to", "synthesis.sample_context",
                   "desirability.desirability", "desirability.rank", "controller.step",
                   "trace.append")


def _assert_a_run_calls_every_engine_layer(tracer, monkeypatch, scenario, out, capsys):
    from handoffsim import cli

    targets = tracer._targets()
    calls = _count_calls(monkeypatch, [pair for name in ENGINE_CHILDREN for pair in targets[name]])
    assert cli.main(["run", str(scenario), "--out", str(out)]) == 0
    capsys.readouterr()
    probed = {f"{owner.__name__}.{attr}" for name in ENGINE_CHILDREN
              for owner, attr in targets[name]}
    assert probed - set(calls) == set()


def test_a_run_calls_every_engine_layer_the_benchmark_probes(tracer, monkeypatch, tmp_path,
                                                               capsys):
    """Each layer of the benchmark's per-layer breakdown is timed by a probe
    on the name the engine calls it by; a fast path that stopped calling one
    would read zero calls and zero time there, not a faster layer."""
    _assert_a_run_calls_every_engine_layer(tracer, monkeypatch, SCENARIO, tmp_path, capsys)


def test_an_rss_weighted_run_calls_every_engine_layer_the_benchmark_probes(
        tracer, monkeypatch, tmp_path, capsys):
    """A run whose scores read RSS takes its own path from coverage to the
    ranked list, and calls the probed names on it too."""
    doc = json.loads(SCENARIO.read_text())
    doc["weights"] = {"k": 0.0, "weights": {"RSS": 0.5, "Q": 0.5}}
    scenario = tmp_path / "crossing_rss.json"
    scenario.write_text(json.dumps(doc))
    _assert_a_run_calls_every_engine_layer(tracer, monkeypatch, scenario, tmp_path, capsys)


def test_a_serial_sweep_calls_every_engine_layer_inside_engine_run(tracer, monkeypatch,
                                                                     capsys):
    """The benchmark's per-layer self times add up to ``engine.run`` only if
    every engine layer of the traced sweep is called while ``engine.run`` is
    on the stack; a sweep that reached the layers by another path would
    leave their time outside it."""
    from handoffsim import cli

    targets = tracer._targets()
    depth = [0]
    calls = []

    def wrap(owner, attr, name):
        real = getattr(owner, attr)

        def probe(*args, **kwargs):
            calls.append((name, depth[0] > 0))
            if name == "engine.run":
                depth[0] += 1
            try:
                return real(*args, **kwargs)
            finally:
                if name == "engine.run":
                    depth[0] -= 1

        monkeypatch.setattr(owner, attr, probe)

    for name in ("engine.run", "sweep.point", *ENGINE_CHILDREN):
        for owner, attr in targets[name]:
            wrap(owner, attr, name)
    grid = "delta=0,0.5;strategy=reactive,proactive"
    assert cli.main(["sweep", str(SCENARIO), "--grid", grid, "--workers", "1"]) == 0
    capsys.readouterr()
    assert [inside for name, inside in calls if name == "engine.run"] == [False]
    assert [inside for name, inside in calls if name == "sweep.point"] == [False] * 4
    children = [(name, inside) for name, inside in calls if name in ENGINE_CHILDREN]
    assert {"topology.coverage", "controller.step"} <= {name for name, _ in children}
    assert all(inside for _, inside in children)


def test_every_probe_observes_a_run_and_a_serial_sweep(tracer, tmp_path, capsys):
    """With every probe and its observer installed, as the benchmark's
    traced pass has them, a ``run`` and a serial ``sweep`` finish and the
    observers read what the engine hands the probed names: the coverage
    observer the stations of the index it is asked, the step observer the
    states and actions of each controller step."""
    from handoffsim import cli

    grid = "delta=0,0.5;strategy=reactive,proactive"
    with tracer.Tracer() as traced:
        assert cli.main(["run", str(SCENARIO), "--out", str(tmp_path)]) == 0
        assert cli.main(["sweep", str(SCENARIO), "--grid", grid, "--workers", "1"]) == 0
    capsys.readouterr()
    assert traced.counts["stations_scanned"] > 0
    times = traced.layer_times()
    assert times["controller.step"]["calls"] > 0
    assert times["sweep.point"]["calls"] == 4
