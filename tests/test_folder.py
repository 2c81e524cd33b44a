"""The online metric fold equals the fold of a finished trace.

``MetricFolder`` as the engine's record sink sees each record as it is made
and keeps no trace; ``compute_metrics`` feeds the same fold from a trace.
Both must give equal snapshots on the golden inputs, which include the
bundled scenarios, pooled and per terminal, run alone and through a
shared context.
"""

import copy

import pytest

from handoffsim import engine
from handoffsim.metrics import MetricFolder, compute_metrics
from handoffsim.scenario import from_dict
from test_golden import GOLDEN, VARIANTS, _inputs


@pytest.fixture(scope="module")
def inputs():
    return _inputs()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_online_fold_equals_the_trace_fold(inputs, name):
    sc = from_dict(copy.deepcopy(inputs[name]))
    trace = engine.run(sc)
    pooled = engine.run(sc, sink=MetricFolder(sc.duration_ms)).snapshot()
    assert pooled == compute_metrics(trace, sc.duration_ms)
    assert pooled.counts["connects"] > 0
    for term in sc.terminals:
        folder = engine.run(sc, sink=MetricFolder(sc.duration_ms, term.id))
        assert folder.snapshot() == compute_metrics(trace, sc.duration_ms, term.id), term.id


@pytest.mark.parametrize("name", ["crossing", "noisy"])
def test_online_fold_through_a_shared_context(inputs, name):
    shared = engine.SharedContext()
    for variant in VARIANTS:
        doc = copy.deepcopy(inputs[name])
        doc["controller"].update(variant)
        sc = from_dict(doc)
        folded = engine.run(sc, shared, MetricFolder(sc.duration_ms)).snapshot()
        assert folded == compute_metrics(engine.run(sc), sc.duration_ms), variant


def test_records_without_an_init_record_fold_with_defaults():
    folder = MetricFolder(1000, "mt1")
    folder.append(0, "mt1", "anl", {"entries": [["n1", 5.0]]})
    folder.append(0, "mt1", "transition", {
        "event": "anl_updated", "from": "disconnection", "to": "initiation",
        "attached": "n1", "actions": [{"connect": "n1"}],
    })
    folder.append(0, "mt2", "anl", {"entries": []})  # not the folded terminal
    snap = folder.snapshot()
    assert snap.counts["connects"] == 1 and snap.counts["d2i"] == 1
    assert snap.dtib == 1.0
