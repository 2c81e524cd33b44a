"""The trace line encoder writes what the canonical ``json.dumps`` would.

Each line is the record ``{"t", "terminal", "kind", "payload"}`` dumped
with sorted keys and compact separators.  The writer spells the envelope
out by hand and streams lines to the file, so these properties check it
byte for byte against ``json.dumps`` on generated records: odd terminal
ids, payloads holding NaN, infinities, booleans and None, and any ``t`` a
read-back trace can hold.
"""

import copy
import json

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from handoffsim import engine
from handoffsim.scenario import from_dict
from handoffsim.trace import ANL, HANDOFF, INIT, TRANSITION, Trace, TraceRecord, read_trace
from test_golden import _inputs

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
    assert TraceRecord(*record).to_json() == _dumps(*record)


@given(records=st.lists(_RECORD, max_size=3))
@example(records=[(0, None, INIT, NESTED), (-7, "mt\n1", HANDOFF, {"x": [[]]})])
def test_write_streams_to_ndjson_and_reads_back_to_the_same_bytes(records, out_dir):
    trace = Trace()
    for record in records:
        trace.append(*record)
    text = trace.to_ndjson()
    assert text == "".join(_dumps(*record) + "\n" for record in records)
    path = out_dir / "trace.ndjson"
    trace.write(path)
    assert path.read_bytes() == text.encode()
    assert read_trace(path).to_ndjson() == text


def test_a_run_writes_its_ndjson(out_dir):
    trace = engine.run(from_dict(copy.deepcopy(_inputs()["crossing"])))
    path = out_dir / "crossing.trace.ndjson"
    trace.write(path)
    assert path.read_text() == trace.to_ndjson()
    assert path.read_text() == "".join(
        _dumps(r.t, r.terminal, r.kind, r.payload) + "\n" for r in trace.records
    )
