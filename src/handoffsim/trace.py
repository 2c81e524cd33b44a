"""Run traces: structured records with a canonical line-delimited encoding.

Every record carries a millisecond timestamp, the terminal it concerns
(None for run-level records), a kind tag, and a kind-specific payload.
Serialization is canonical (sorted keys, no whitespace), so two runs that
behave identically produce byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
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


def _line(t, terminal, kind: str, payload) -> str:
    """One record's canonical line, without its newline: the envelope's four
    keys are written in sorted order and each value encoded on its own, the
    usual int time, str kind and str-or-None terminal without the encoder."""
    return '{"kind":%s,"payload":%s,"t":%s,"terminal":%s}' % (
        encode_basestring_ascii(kind) if type(kind) is str else _encode(kind),
        _encode(payload),
        t if type(t) is int else _encode(t),
        "null" if terminal is None else (
            encode_basestring_ascii(terminal) if type(terminal) is str else _encode(terminal)
        ),
    )


class TraceRecord(NamedTuple):
    t: int
    terminal: Optional[str]
    kind: str
    payload: dict

    def to_json(self) -> str:
        return _line(self.t, self.terminal, self.kind, self.payload)


@dataclass
class Trace:
    records: list[TraceRecord] = field(default_factory=list)

    def append(self, t: int, terminal: Optional[str], kind: str, payload: dict) -> None:
        self.records.append(TraceRecord(t, terminal, kind, payload))

    def of_kind(self, kind: str, terminal: Optional[str] = None) -> list[TraceRecord]:
        return [
            r
            for r in self.records
            if r.kind == kind and (terminal is None or r.terminal == terminal)
        ]

    def _lines(self):
        for t, terminal, kind, payload in self.records:
            yield _line(t, terminal, kind, payload) + "\n"

    def to_ndjson(self) -> str:
        return "".join(self._lines())

    def write(self, path: str | Path) -> None:
        """Stream the lines of ``to_ndjson`` to ``path``, never holding the
        whole text."""
        with open(path, "w") as fh:
            fh.writelines(self._lines())


def parse_ndjson(lines: Iterable[str]) -> Trace:
    trace = Trace()
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            doc = json.loads(line)
            trace.append(doc["t"], doc["terminal"], doc["kind"], doc["payload"])
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise MalformedTraceError(f"line {lineno}: {exc}") from exc
    return trace


def read_trace(path: str | Path) -> Trace:
    with open(path) as fh:
        return parse_ndjson(fh)
