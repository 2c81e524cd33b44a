"""Suite-wide test settings and shared fixtures."""

import pytest
from hypothesis import settings

# Derandomized and without an example database, so a test passes or fails
# the same way on every checkout, whatever a local .hypothesis/ holds.
# Another registered profile can still be picked with --hypothesis-profile.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def fsm_exploration():
    """The exhaustive controller/reference walk, run once per session."""
    from test_fsm_conformance import _explore

    return _explore()
