"""A trace's canonical text in memory: the bytes ``Trace.write`` streams to
a file, which the golden and determinism tests compare."""

from itertools import starmap

from handoffsim.trace import LineEncoder


def ndjson(trace) -> str:
    """Every record's line, through one encoder for the whole trace."""
    return "".join(starmap(LineEncoder().line, trace.records))
