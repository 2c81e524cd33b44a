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
