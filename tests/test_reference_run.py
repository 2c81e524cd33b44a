"""The engine's whole trace against a plain per-terminal loop, on generated
scenarios.

Between the ``anl`` records and the controller the engine keeps one event
queue for every terminal, shares each tick's context between terminals and
points, holds coverage answers and cuts timers at the horizon.
``reference_run`` does none of that, so every record must match it: the
order of a tick's link loss, ``anl`` record and step, where timers land
against ticks, the horizon cut and the merge of terminals into one trace.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from handoffsim.engine import run
from handoffsim.scenario import from_dict, parse_controller
from handoffsim.trace import Trace
from reference_context import scenarios
from reference_run import run_records
from test_points import _with_controller
from test_reference_context import _lines

# Controller values whose latencies land timers on, between and past ticks.
controllers = st.fixed_dictionaries({
    "dwell_sp": st.sampled_from([0, 100, 250]),
    "prep_latency": st.sampled_from([0, 100, 350]),
    "exec_latency": st.sampled_from([0, 50, 100, 200]),
    "eval_latency": st.sampled_from([0, 50, 100, 300]),
    "hysteresis_delta": st.sampled_from([0.0, 0.5]),
})
documents = st.sampled_from([(6, False), (6, True), (30, False), (30, True)]).flatmap(
    lambda shape: scenarios(ticks=shape[0], crossing=shape[1]))


@settings(max_examples=300, deadline=None)
@given(doc=documents, values=controllers)
def test_every_record_matches_the_reference(doc, values):
    sc = from_dict(_with_controller(doc, values))
    assert _lines(run(sc).records) == _lines(run_records(sc))


@settings(max_examples=60, deadline=None)
@given(doc=documents, values=st.lists(controllers, min_size=2, max_size=2))
def test_each_point_of_one_pass_matches_the_reference_under_its_controller(doc, values):
    sc = from_dict(doc)
    cfgs = [parse_controller(_with_controller(doc, v)) for v in values]
    traces = run(sc, points=[(cfg, Trace()) for cfg in cfgs])
    for cfg, trace in zip(cfgs, traces):
        assert _lines(trace.records) == _lines(run_records(sc, cfg))


@settings(max_examples=60, deadline=None)
@given(doc=documents, values=controllers, data=st.data())
def test_a_run_over_one_terminal_gives_it_its_records_of_the_whole_run(doc, values, data):
    sc = from_dict(_with_controller(doc, values))
    term = data.draw(st.sampled_from(sc.terminals))
    alone = run(sc._replace(terminals=(term,))).records
    mine = [r for r in run_records(sc) if r[1] == term.id]
    assert _lines(r for r in alone if r.terminal == term.id) == _lines(mine)
