"""The trace line encoder writes what the canonical ``json.dumps`` would.

Each line is the record ``{"t", "terminal", "kind", "payload"}`` dumped
with sorted keys and compact separators.  The writer spells the envelope
out by hand and streams lines to the file, so these properties check it
byte for byte against ``json.dumps`` on generated records: odd terminal
ids, payloads holding NaN, infinities, booleans and None, and any ``t`` a
read-back trace can hold.  One encoder serves a whole write and reuses
the text of repeated ``anl`` entries and action-less transitions, so
further properties feed it those shapes with values that are equal but
encode differently, and shapes one key or one type away from them.
"""

import copy
import json
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from handoffsim import controller, engine, trace as trace_module
from handoffsim.desirability import AvailableNetworkList
from handoffsim.errors import MalformedTraceError
from handoffsim.scenario import from_dict, load_scenario
from handoffsim.trace import (
    ANL, HANDOFF, INIT, TRANSITION, LineEncoder, Trace, parse_ndjson, read_trace,
)
from test_golden import _inputs
from trace_text import ndjson

_ODD_TEXT = st.sampled_from(['"', "\\", 'mt"1', "\x00\x1f\n\r\t", "é漢😀", " ", ""])
_TEXT = st.one_of(st.text(max_size=8), _ODD_TEXT)
# Every value a JSON document can hold, as ``json.loads`` returns it.
_SPECIAL = st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, True, False, None])
_JSON = st.recursive(
    _SPECIAL | st.integers() | st.floats() | _TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=8,
)
_RECORD = st.tuples(
    _JSON,  # t: read_trace takes whatever the line holds
    st.one_of(st.none(), _TEXT),
    st.one_of(st.sampled_from([INIT, ANL, TRANSITION, HANDOFF]), _TEXT),
    st.dictionaries(_TEXT, _JSON, max_size=3),
)


def _dumps(t, terminal, kind, payload) -> str:
    return json.dumps(
        {"t": t, "terminal": terminal, "kind": kind, "payload": payload},
        sort_keys=True,
        separators=(",", ":"),
    )


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("traces")


NESTED = {"a": [float("nan"), {"b": [float("inf"), float("-inf")]}], "c": True, "d": None}


@given(record=_RECORD)
@example(record=(float("nan"), None, ANL, NESTED))
@example(record=(1.5, 'é"\x01', "kind", {}))
def test_a_line_is_the_canonical_dump(record):
    assert LineEncoder().line(*record) == _dumps(*record) + "\n"


@given(records=st.lists(_RECORD, max_size=3))
@example(records=[(0, None, INIT, NESTED), (-7, "mt\n1", HANDOFF, {"x": [[]]})])
def test_write_streams_to_ndjson_and_reads_back_to_the_same_bytes(records, out_dir):
    trace = Trace()
    for record in records:
        trace.append(*record)
    text = ndjson(trace)
    assert text == "".join(_dumps(*record) + "\n" for record in records)
    path = out_dir / "trace.ndjson"
    trace.write(path)
    assert path.read_bytes() == text.encode()
    assert ndjson(read_trace(path)) == text


_GOOD_LINE = b'{"kind":"init","payload":{},"t":0,"terminal":null}\n'


@pytest.mark.parametrize("bad", [
    b'{"kind":"init","payload":{},"t":' + b"9" * 5000 + b',"terminal":null}\n',
    b"[" * 100_000 + b"]" * 100_000 + b"\n",
    b'{"kind":"init","payload":{"x":"\xff"},"t":0,"terminal":null}\n',
    b'{"kind":"init","payload":{},"t":0}\n',
], ids=["integer-too-long", "nested-too-deeply", "not-utf-8", "missing-key"])
def test_a_malformed_line_raises_malformed_trace_error_naming_it(bad, out_dir):
    path = out_dir / "malformed.ndjson"
    path.write_bytes(_GOOD_LINE + bad + _GOOD_LINE)
    with pytest.raises(MalformedTraceError, match=r"^line 2: "):
        read_trace(path)


def test_a_run_writes_its_ndjson(out_dir):
    trace = engine.run(from_dict(copy.deepcopy(_inputs()["crossing"])))
    path = out_dir / "crossing.trace.ndjson"
    trace.write(path)
    assert path.read_text() == ndjson(trace)
    assert path.read_text() == "".join(
        _dumps(r.t, r.terminal, r.kind, r.payload) + "\n" for r in trace.records
    )


SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


@pytest.mark.parametrize("name", ["crossing.json", "noisy.json"])
def test_each_anl_record_rebuilds_the_list_the_controller_got(name, monkeypatch):
    """A list built straight from an ``anl`` record's pairs, as a replay
    would build it, equals the one the controller was handed, hashes as it
    does and looks up the same scores."""
    handed = {}
    real = controller.step

    def step(state, event, cfg, now):
        if isinstance(event, controller.AnlUpdated):
            handed[(now, state.terminal)] = event.anl
        return real(state, event, cfg, now)

    monkeypatch.setattr(controller, "step", step)
    trace = engine.run(load_scenario(SCENARIO_DIR / name))
    records = [r for r in parse_ndjson(ndjson(trace).splitlines()).records if r.kind == ANL]
    assert len(records) == len(handed) > 0
    for rec in records:
        kept = handed[(rec.t, rec.terminal)]
        built = AvailableNetworkList(tuple(map(tuple, rec.payload["entries"])))
        assert built == kept and hash(built) == hash(kept)
        assert built.values == kept.values


# Values a memo key must not join: equal, or both NaN, yet written apart.
_NAN = float("nan")
_CLASHING = st.sampled_from(
    [0.0, -0.0, 1, 1.0, True, False, _NAN, float("inf"), float("-inf"), None, 2.5, "2.5"]
)
_NET = st.sampled_from(["bs1", "bs2", 'b"s'])
_ENTRY = st.one_of(
    st.tuples(_NET, _CLASHING | st.builds(float, st.just("nan")) | st.floats()).map(list),
    st.tuples(_NET, _CLASHING),  # a tuple is written as a list
    st.tuples(st.lists(_NET, max_size=1), st.floats()).map(list),  # an unhashable net
    st.lists(_CLASHING, max_size=3),
    st.dictionaries(_NET, _CLASHING, max_size=2),
    _CLASHING,
)
_ANL_PAYLOAD = st.one_of(
    st.fixed_dictionaries({"entries": st.lists(_ENTRY, max_size=5)}),
    st.fixed_dictionaries({"entrees": st.lists(_ENTRY, max_size=3)}),
    st.fixed_dictionaries({"entries": st.lists(_ENTRY, max_size=3), "x": _CLASHING}),
    st.fixed_dictionaries({"entries": _CLASHING | st.tuples(_ENTRY)}),
)
_TRANSITION_KEYS = ["event", "from", "to", "attached", "actions"]
_PHASE = st.sampled_from(["execution", "initiation", None, 1, True, ["a"]])


@st.composite
def _transition_payload(draw):
    payload = {key: draw(_PHASE) for key in _TRANSITION_KEYS[:4]}
    payload["actions"] = draw(st.sampled_from([[], [], (), [{"connect": "bs1"}], None]))
    if draw(st.booleans()):  # one key renamed
        payload[draw(_TEXT)] = payload.pop(draw(st.sampled_from(_TRANSITION_KEYS)))
    return payload


_TICK = st.one_of(
    st.sampled_from([0, 0, 100, 200]), st.just(_NAN), st.lists(st.integers(0, 2), max_size=2)
)
_MEMO_RECORD = st.one_of(
    st.tuples(_TICK, st.sampled_from(["mt1", "mt2", None]), st.just(ANL), _ANL_PAYLOAD),
    st.tuples(_TICK, st.sampled_from(["mt1", "mt2"]), st.just(TRANSITION), _transition_payload()),
    st.tuples(_TICK, st.just("mt1"), st.sampled_from([INIT, HANDOFF]),
              _ANL_PAYLOAD | _transition_payload()),
)
CLASHES = [["a", 0.0], ["a", -0.0], ["a", 1], ["a", 1.0], ["a", True], ["a", _NAN],
           ["a", float("nan")], ["a", float("inf")], ["a", float("-inf")]]
STEP = {"event": "anl_updated", "from": "execution", "to": "execution", "attached": "a",
        "actions": []}


@given(records=st.lists(_MEMO_RECORD, max_size=12))
@example(records=[
    (100, "mt1", ANL, {"entries": CLASHES}),
    (100, "mt2", ANL, {"entries": CLASHES[::-1]}),
    # Each entry alone, so every one of them takes the memo.
    *((100, "mt1", ANL, {"entries": [entry]}) for entry in CLASHES + CLASHES),
    (0, "mt1", ANL, {"entries": [["a", -0.0], ["a", 1.0]]}),  # back in time
    (100, "mt1", TRANSITION, STEP),
    (100, "mt2", TRANSITION, {**STEP, "attached": None}),
    (100, "mt1", TRANSITION, {("attachd" if k == "attached" else k): v for k, v in STEP.items()}),
    (100, "mt1", TRANSITION, {**STEP, "actions": [{"connect": "a"}]}),
    (100, "mt1", TRANSITION, {**STEP, "event": 1}),
    (_NAN, "mt1", ANL, {"entries": [["a", 1.0]]}),
    (_NAN, "mt1", ANL, {"entries": [["a", True]]}),
    ([0], "mt1", ANL, {"entries": [["a", 1]]}),
    ([0], "mt1", ANL, {"entries": [("a", 1.0), ["a", 1.0, 2.0], {"a": 1.0}]}),
])
def test_the_memoized_shapes_write_what_json_dumps_does(records, out_dir):
    trace = Trace()
    for record in records:
        trace.append(*record)
    expected = [_dumps(*record) for record in records]
    text = ndjson(trace)
    assert text.split("\n")[:-1] == expected
    path = out_dir / "memo.ndjson"
    trace.write(path)
    assert path.read_text().split("\n")[:-1] == expected
    assert ndjson(read_trace(path)) == text


def test_each_tick_formats_each_distinct_anl_entry_once(monkeypatch, out_dir):
    """With no RSS weight, a station's score at a tick is shared by every
    terminal it covers; the encoder writes it once per tick, and each
    distinct transition without actions once per write."""
    encoders, encoded, inserted = [], [], []

    class CountedFragments(dict):
        """Counts every fragment put in the memo, across its clears."""

        def __setitem__(self, key, text):
            inserted.append(key)
            super().__setitem__(key, text)

    class Watched(LineEncoder):
        def __init__(self):
            super().__init__()
            self.fragments = CountedFragments()
            encoders.append(self)

    def counted(value, _encode=trace_module._encode):
        encoded.append(value)
        return _encode(value)

    doc = copy.deepcopy(_inputs()["dense_geometric"])
    assert "RSS" not in doc["weights"]["weights"]
    trace = engine.run(from_dict(doc))
    monkeypatch.setattr(trace_module, "LineEncoder", Watched)
    monkeypatch.setattr(trace_module, "_encode", counted)
    trace.write(out_dir / "dense_geometric.trace.ndjson")
    [encoder] = encoders
    anl = [(r.t, r.payload["entries"]) for r in trace.records if r.kind == ANL]
    distinct = {(t, net, repr(value)) for t, entries in anl for net, value in entries}
    assert len(inserted) == len(distinct)
    assert len(distinct) < sum(len(entries) for _, entries in anl)
    # Only the other payloads and each distinct step's first go to the encoder.
    steps = [r.payload for r in trace.records if r.kind == TRANSITION and not r.payload["actions"]]
    keys = {(p["event"], p["from"], p["to"], p["attached"]) for p in steps}
    assert len(keys) < len(steps)
    assert len(encoded) == len(trace.records) - len(anl) - len(steps) + len(keys)
