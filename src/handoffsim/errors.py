"""Exception types shared across the package."""

from __future__ import annotations


class HandoffSimError(Exception):
    """Base class for all package errors."""


class UnknownCriterionError(HandoffSimError):
    def __init__(self, criterion_id: str):
        self.criterion_id = criterion_id
        super().__init__(f"unknown criterion id: {criterion_id!r}")


class NonFiniteValueError(HandoffSimError):
    def __init__(self, criterion_id: str, value: float):
        self.criterion_id = criterion_id
        self.value = value
        super().__init__(f"non-finite value for criterion {criterion_id!r}: {value!r}")


class MissingCriterionError(HandoffSimError):
    def __init__(self, criterion_id: str):
        self.criterion_id = criterion_id
        super().__init__(f"weighted criterion missing from vector: {criterion_id!r}")


class DuplicateNetworkError(HandoffSimError):
    def __init__(self, network_id: str):
        self.network_id = network_id
        super().__init__(f"duplicate network id in ranking input: {network_id!r}")


class IllegalEventError(HandoffSimError):
    def __init__(self, phase, event):
        self.phase = phase
        self.event = event
        super().__init__(f"event {event!r} is not defined in phase {phase!r}")


class PolicyGapError(HandoffSimError):
    def __init__(self, key):
        self.key = key
        super().__init__(f"policy table has no entry for {key!r}")


class MalformedTraceError(HandoffSimError):
    """Trace input is not parseable as line-delimited JSON records."""


class ScenarioError(HandoffSimError):
    """Scenario document fails schema or invariant validation.

    ``problems`` holds one human-readable diagnostic per violation, each
    anchored to the offending field path (or input line for parse errors).
    """

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))
