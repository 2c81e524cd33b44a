"""The online metric fold equals the fold of a finished trace.

``MetricFolder`` as the engine's record sink sees each record as it is made
and keeps no trace; ``compute_metrics`` feeds the same fold from a trace.
Both must give equal snapshots on the golden inputs, which include the
bundled scenarios, pooled and per terminal, run alone and as points of one
engine pass; and a pooled snapshot's ``by_terminal`` holds exactly the
snapshot each terminal gets when asked for alone.  Runs over groups of a
scenario's terminals pool to the snapshot of the run over all of them.
"""

import copy

import pytest
from hypothesis import given, settings

from handoffsim import engine
from handoffsim.metrics import MetricFolder, compute_metrics, pool
from handoffsim.scenario import from_dict, parse_controller
from test_golden import GOLDEN, VARIANTS, _inputs
from test_metrics import ref_facts
from test_reference_context import scenarios


@pytest.fixture(scope="module")
def inputs():
    return _inputs()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_online_fold_equals_the_trace_fold(inputs, name):
    sc = from_dict(copy.deepcopy(inputs[name]))
    trace = engine.run(sc)
    online = engine.run(sc, sink=MetricFolder(sc.duration_ms))
    pooled = online.snapshot()
    assert pooled == compute_metrics(trace, sc.duration_ms)
    assert pooled.connects > 0
    assert list(pooled.by_terminal) == sorted(term.id for term in sc.terminals)
    for term in sc.terminals:
        alone = compute_metrics(trace, sc.duration_ms, term.id)
        assert pooled.by_terminal[term.id] == alone, term.id
        assert online.snapshot(term.id) == alone, term.id
        assert alone.by_terminal == {}


@pytest.mark.parametrize("name", ["crossing", "noisy"])
def test_online_fold_through_a_shared_context(inputs, name):
    # One engine pass folds every variant, as a sweep batch does.
    base = from_dict(copy.deepcopy(inputs[name]))
    controllers = []
    for variant in VARIANTS:
        doc = copy.deepcopy(inputs[name])
        doc["controller"].update(variant)
        controllers.append(parse_controller(doc))
    points = [(controller, MetricFolder(base.duration_ms)) for controller in controllers]
    folders = engine.run(base, points=points)
    for variant, controller, folder in zip(VARIANTS, controllers, folders):
        alone = engine.run(base._replace(controller=controller))
        assert folder.snapshot() == compute_metrics(alone, base.duration_ms), variant


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_terminal_groups_pool_to_the_whole_run(inputs, name):
    sc = from_dict(copy.deepcopy(inputs[name]))
    whole = engine.run(sc, sink=MetricFolder(sc.duration_ms)).snapshot()
    terminals = tuple(sorted(sc.terminals, key=lambda term: term.id))

    def facts(group):
        return engine.run(sc._replace(terminals=group), sink=MetricFolder(sc.duration_ms)).facts()

    def pooled(groups):
        return pool([f for group in groups for f in facts(group)], sc.duration_ms,
                    sc.metrics_constants)

    cuts = [(terminals[:cut], terminals[cut:]) for cut in range(len(terminals) + 1)]
    for groups in [*cuts, [(term,) for term in terminals]]:
        snap = pooled(groups)
        assert snap == whole, [len(group) for group in groups]
        assert repr(snap) == repr(whole)  # floats keep their bits


def test_records_without_an_init_record_fold_with_defaults():
    folder = MetricFolder(1000)
    folder.append(0, "mt1", "anl", {"entries": [["n1", 5.0]]})
    folder.append(0, "mt1", "transition", {
        "event": "anl_updated", "from": "disconnection", "to": "initiation",
        "attached": "n1", "actions": [{"connect": "n1"}],
    })
    folder.append(0, "mt2", "anl", {"entries": []})  # another terminal's record
    snap = folder.snapshot("mt1")
    assert snap.connects == 1
    assert snap.dtib == 1.0
    assert folder.snapshot().by_terminal == {"mt1": snap, "mt2": folder.snapshot("mt2")}
    assert folder.snapshot("mt2").connects == 0


@settings(max_examples=60, deadline=None)
@given(doc=scenarios(ticks=20, crossing=True))
def test_folds_of_a_run_that_hands_off_match_the_reference(doc):
    sc = from_dict(doc)
    trace = engine.run(sc)
    online = engine.run(sc, sink=MetricFolder(sc.duration_ms)).snapshot()
    want = pool(ref_facts(trace, sc.duration_ms), sc.duration_ms, sc.metrics_constants)
    assert repr(online) == repr(compute_metrics(trace)) == repr(want)
    assert online.by_terminal == compute_metrics(trace).by_terminal


def test_asking_part_way_leaves_the_fold_unchanged(inputs):
    # Each ask settles and grades on a copy; none of it stays in the fold.
    sc = from_dict(copy.deepcopy(inputs["crossing"]))
    trace = engine.run(sc)
    folder = MetricFolder(sc.duration_ms)
    for rec in trace.records:
        folder.append(*rec)
        folder.facts()
    assert repr(folder.snapshot()) == repr(compute_metrics(trace))
    assert folder.snapshot() == folder.snapshot()
