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


@pytest.fixture()
def handoffs_hit_a_policy_gap(monkeypatch):
    """Each handoff fails where it starts, as it would under a strict policy
    table without its entry: ``controller.step`` raises PolicyGapError for
    the terminal's application type in place of every step that starts a
    switch.  Every handoff of ``crossing.json`` is an L3 one.  A sweep's
    forked workers inherit the patch."""
    from handoffsim import controller
    from handoffsim.errors import PolicyGapError

    real = controller.step

    def step(state, event, cfg, now):
        new_state, actions = real(state, event, cfg, now)
        if any(isinstance(action, controller.StartSwitch) for action in actions):
            raise PolicyGapError(("L3", state.app_type))
        return new_state, actions

    monkeypatch.setattr(controller, "step", step)
