"""Every name the benchmark's probes replace exists in the program.

``perfbench/tracer.py`` wraps functions as their callers see them, for
example ``cli.compute_metrics``; a refactor that renamed one would make
every benchmark repetition raise.  This reads the probe table from that
file, without changing it, so such a rename fails here instead.
"""

import importlib
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
    """``sweep.point`` times one grid point, and parsing stays out of it."""
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
