"""The engine's context against a plain reference, on generated scenarios.

Between a scenario and its ``anl`` records the engine takes fast paths: the
coverage grid with its ulp pad, coverage without RSS, the per-tick sample
memo, scores shared by terminals when RSS has no weight, and constants
resolved once per run (each geometric network's criteria, the scoring plan
of the profile and catalog, the stochastic walk's order).
``reference_context`` takes none of them, so every record must match it.
"""

import json

from hypothesis import given, settings

from handoffsim.engine import run
from handoffsim.scenario import from_dict
from handoffsim.synthesis import SynthesisState, sample_context
from handoffsim.trace import ANL
from reference_context import anl_records, samples, scenarios

def _lines(records):
    """Each record's canonical JSON text."""
    return [json.dumps(list(r), sort_keys=True, separators=(",", ":")) for r in records]


@settings(max_examples=150, deadline=None)
@given(doc=scenarios())
def test_every_anl_record_matches_the_reference(doc):
    sc = from_dict(doc)
    got = [(r.t, r.terminal, r.payload) for r in run(sc).records if r.kind == ANL]
    assert _lines(got) == _lines(anl_records(sc))


@settings(max_examples=150, deadline=None)
@given(doc=scenarios())
def test_every_sample_matches_the_reference(doc):
    """Each network's sample at each tick has the reference's criteria, in
    sorted order, and values.  A criterion no weight reads never reaches an
    ``anl`` record, so only this sees one added to or dropped from a
    sample."""
    sc = from_dict(doc)
    state = SynthesisState(sc.synthesis, sc.seed)
    for t, want in samples(sc):
        state.advance_to(t, sc.tick_ms)
        got = {net: sample_context(net, t, state) for net in want}
        assert json.dumps(got) == json.dumps(want), t
