"""Run traces: structured records with a canonical line-delimited encoding.

Every record carries a millisecond timestamp, the terminal it concerns
(None for run-level records), a kind tag, and a kind-specific payload.
Serialization is canonical (sorted keys, no whitespace), so two runs that
behave identically produce byte-identical files.
"""

from __future__ import annotations

import json
from itertools import starmap
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Iterable, NamedTuple, Optional

from .errors import MalformedTraceError

# Record kinds.
INIT = "init"
ANL = "anl"
TRANSITION = "transition"
HANDOFF = "handoff"


# Encodes a value as the canonical ``json.dumps(value, sort_keys=True,
# separators=(",", ":"))`` does; for a str that is ``encode_basestring_ascii``.
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
_float_repr = float.__repr__
_INF = float("inf")


def _line(t, terminal, kind: str, payload_text: str) -> str:
    """One record's canonical line, with its newline, given its payload's
    encoding: the envelope's four keys are written in sorted order and each
    value encoded on its own, the usual int time, str kind and str-or-None
    terminal without the encoder."""
    return '{"kind":%s,"payload":%s,"t":%s,"terminal":%s}\n' % (
        encode_basestring_ascii(kind) if type(kind) is str else _encode(kind),
        payload_text,
        t if type(t) is int else _encode(t),
        "null" if terminal is None else (
            encode_basestring_ascii(terminal) if type(terminal) is str else _encode(terminal)
        ),
    )


class LineEncoder:
    """Encodes the records of one write, in trace order, to their lines.

    Most of what a run traces repeats, and this formats each repeat once:

    - An ``anl`` entry ``[net, value]`` with a str net and a float value is
      formatted once per tick.  When no score reads RSS, a station's score
      at a tick is one float shared by every terminal it covers.  The
      fragment memo is cleared whenever ``t`` changes, so it holds one
      tick's distinct entries.
    - A transition with no action is formatted once per (event, from, to,
      attached), a set bounded by the run's events, phases and stations.

    A finite float's JSON text is its ``repr``, so a fragment is what the
    canonical encoder writes for it; everything else, including a payload
    whose keys or value types differ from these shapes in any way, goes to
    that encoder.  A memo key never joins values that are equal but encode
    differently: a value must be an exact float, so ``1`` and ``True`` never
    meet ``1.0``, and a zero is keyed by its text, so ``0.0`` and ``-0.0``
    stay apart.
    """

    def __init__(self) -> None:
        self.t = None  # the tick of the fragments held
        self.fragments: dict[tuple, str] = {}
        self.transitions: dict[tuple, str] = {}

    def line(self, t, terminal, kind, payload) -> str:
        """The record's canonical line, with its newline."""
        text = None
        if type(payload) is dict:
            if kind == ANL and len(payload) == 1:
                text = self._entries(t, payload.get("entries"))
            elif kind == TRANSITION and len(payload) == 5 and payload.get("actions") == []:
                text = self._transition(payload)
        return _line(t, terminal, kind, _encode(payload) if text is None else text)

    def _entries(self, t, entries) -> Optional[str]:
        if type(entries) is not list:
            return None
        if t != self.t:
            self.t = t
            self.fragments.clear()
        memo = self.fragments
        parts = []
        for entry in entries:
            if type(entry) is not list or len(entry) != 2:
                return None
            net, value = entry
            if type(net) is not str or type(value) is not float:
                return None
            key = (net, value) if value else (net, _float_repr(value))
            text = memo.get(key)
            if text is None:
                text = memo[key] = "[%s,%s]" % (
                    encode_basestring_ascii(net),
                    _float_repr(value) if -_INF < value < _INF else _encode(value),
                )
            parts.append(text)
        return '{"entries":[%s]}' % ",".join(parts)

    def _transition(self, payload: dict) -> Optional[str]:
        try:
            key = (payload["event"], payload["from"], payload["to"], payload["attached"])
        except KeyError:
            return None
        for value in key:
            if value is not None and type(value) is not str:
                return None
        text = self.transitions.get(key)
        if text is None:
            text = self.transitions[key] = _encode(payload)
        return text


class TraceRecord(NamedTuple):
    t: int
    terminal: Optional[str]
    kind: str
    payload: dict


class Trace:
    """A run's records, in the order they were made."""

    __slots__ = ("records",)

    def __init__(self, records: Optional[list[TraceRecord]] = None):
        self.records = [] if records is None else records

    def append(self, t: int, terminal: Optional[str], kind: str, payload: dict) -> None:
        """Keep the record, with the payload itself, not a copy: nothing may
        mutate a payload once it is appended.  Records may share parts of
        their payloads, as a run's ``anl`` records share each station's
        ``[id, score]`` entry of a tick."""
        # tuple.__new__ skips the named tuple's generated __new__ frame.
        self.records.append(tuple.__new__(TraceRecord, (t, terminal, kind, payload)))

    def write(self, path: str | Path) -> None:
        """Stream each record's canonical line to ``path``, through one
        encoder for the whole trace, never holding the whole text."""
        with open(path, "w") as fh:
            fh.writelines(starmap(LineEncoder().line, self.records))


def parse_ndjson(lines: Iterable[str | bytes]) -> Trace:
    """The trace in NDJSON lines, each a str or UTF-8 bytes.  A line that is
    not UTF-8 text holding one record's JSON within the parser's limits
    raises MalformedTraceError naming it."""
    trace = Trace()
    for lineno, line in enumerate(lines, start=1):
        try:
            if isinstance(line, bytes):
                line = line.decode("utf-8")
            line = line.strip()
            if not line:
                continue
            doc = json.loads(line)
            trace.append(doc["t"], doc["terminal"], doc["kind"], doc["payload"])
        # ValueError covers JSONDecodeError, UnicodeDecodeError and an integer
        # longer than the interpreter converts.
        except (ValueError, KeyError, TypeError, RecursionError) as exc:
            raise MalformedTraceError(f"line {lineno}: {exc}") from exc
    return trace


def read_trace(path: str | Path) -> Trace:
    """The trace in an NDJSON file, read as UTF-8 line by line."""
    with open(path, "rb") as fh:
        return parse_ndjson(fh)
