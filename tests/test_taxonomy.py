"""Handoff type enumeration and transition classification."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from handoffsim.taxonomy import (
    Attachment,
    InfraLevel,
    Layer,
    Verticality,
    classify,
    delta,
    enumerate_types,
)


def _att(terminal="mt1", provider="p1", net="n1", cell="c1", channel="ch1", tech="lte"):
    return Attachment(
        terminal_id=terminal,
        provider_id=provider,
        net_id=net,
        cell_id=cell,
        channel_id=channel,
        technology=tech,
    )


class TestEnumeration:
    def test_fifteen_types(self):
        assert len(enumerate_types()) == 15

    def test_codes_unique(self):
        codes = [t.code for t in enumerate_types()]
        assert len(set(codes)) == 15

    def test_split_by_terminal(self):
        types = enumerate_types()
        # 8 infrastructure outcomes with a terminal change, 7 without
        # (no-change + no-terminal-change is the excluded identity).
        assert sum(1 for t in types if t.terminal_changed) == 8
        assert sum(1 for t in types if not t.terminal_changed) == 7

    def test_expected_codes(self):
        codes = {t.code for t in enumerate_types()}
        assert codes == {
            "channel",
            "cell_horizontal",
            "cell_vertical",
            "net_horizontal",
            "net_vertical",
            "provider_horizontal",
            "provider_vertical",
            "terminal",
            "terminal+channel",
            "terminal+cell_horizontal",
            "terminal+cell_vertical",
            "terminal+net_horizontal",
            "terminal+net_vertical",
            "terminal+provider_horizontal",
            "terminal+provider_vertical",
        }

    def test_verticality_only_where_technologies_can_differ(self):
        for t in enumerate_types():
            if t.infra_level in (InfraLevel.CELL, InfraLevel.NET, InfraLevel.PROVIDER):
                assert t.verticality in (Verticality.HORIZONTAL, Verticality.VERTICAL)
            else:
                assert t.verticality is Verticality.NOT_APPLICABLE

    def test_layer_assignment(self):
        by_code = {t.code: t for t in enumerate_types()}
        assert by_code["channel"].layer is Layer.L1
        assert by_code["cell_horizontal"].layer is Layer.L2
        assert by_code["cell_vertical"].layer is Layer.L2
        assert by_code["net_horizontal"].layer is Layer.L3
        assert by_code["net_vertical"].layer is Layer.L3
        assert by_code["provider_horizontal"].layer is Layer.L4_7
        # Anything touching the terminal needs session-level support.
        for t in enumerate_types():
            if t.terminal_changed:
                assert t.layer is Layer.L4_7


class TestClassification:
    def test_identity_is_not_a_handoff(self):
        a = _att()
        assert classify(a, a) is None

    def test_channel_change_within_cell(self):
        ht = classify(_att(channel="ch1"), _att(channel="ch2"))
        assert ht.code == "channel"
        assert ht.layer is Layer.L1
        assert ht.verticality is Verticality.NOT_APPLICABLE

    def test_cell_change_same_tech(self):
        ht = classify(_att(cell="c1", channel="ch1"), _att(cell="c2", channel="ch9"))
        assert ht.code == "cell_horizontal"
        assert ht.layer is Layer.L2

    def test_cell_change_new_tech(self):
        ht = classify(
            _att(cell="c1", tech="wifi"), _att(cell="c2", channel="ch9", tech="lte")
        )
        assert ht.code == "cell_vertical"
        assert ht.verticality is Verticality.VERTICAL

    def test_net_change_same_provider(self):
        ht = classify(
            _att(net="n1", cell="c1"), _att(net="n2", cell="c7", channel="ch7")
        )
        assert ht.code == "net_horizontal"
        assert ht.layer is Layer.L3

    def test_provider_change_new_tech(self):
        ht = classify(
            _att(provider="p1", net="n1", cell="c1", tech="lte"),
            _att(provider="p2", net="n9", cell="c9", channel="ch9", tech="wifi"),
        )
        assert ht.code == "provider_vertical"
        assert ht.layer is Layer.L4_7

    def test_terminal_change_same_attachment_point(self):
        ht = classify(_att(terminal="mt_a"), _att(terminal="mt_b"))
        assert ht.code == "terminal"
        assert ht.terminal_changed
        assert ht.infra_level is InfraLevel.NONE
        assert ht.layer is Layer.L4_7

    def test_terminal_plus_net_change(self):
        ht = classify(
            _att(terminal="mt_a", net="n1"),
            _att(terminal="mt_b", net="n2", cell="c2", channel="ch2", tech="wimax"),
        )
        assert ht.code == "terminal+net_vertical"
        assert ht.layer is Layer.L4_7

    def test_highest_changed_level_wins(self):
        # A provider change drags net, cell, and channel along; the type
        # reports the provider level, not the incidental lower changes.
        ht = classify(
            _att(provider="p1", net="n1", cell="c1", channel="ch1"),
            _att(provider="p2", net="n2", cell="c2", channel="ch2"),
        )
        assert ht.infra_level is InfraLevel.PROVIDER

    def test_tech_change_alone_is_not_a_handoff(self):
        # Technology is an attribute of the attachment point; with every
        # identifier unchanged there is nothing to hand off to.
        assert classify(_att(tech="lte"), _att(tech="wifi")) is None

    def test_classification_image_is_exactly_the_enumeration(self):
        # Drive classify() over constructed transitions hitting every
        # combination; the image must be the 15 enumerated types.
        outcomes = {
            "none": {},
            "channel": {"channel": "chX"},
            "cell_h": {"cell": "cX", "channel": "chX"},
            "cell_v": {"cell": "cX", "channel": "chX", "tech": "wifi"},
            "net_h": {"net": "nX", "cell": "cX", "channel": "chX"},
            "net_v": {"net": "nX", "cell": "cX", "channel": "chX", "tech": "wifi"},
            "prov_h": {"provider": "pX", "net": "nX", "cell": "cX", "channel": "chX"},
            "prov_v": {
                "provider": "pX", "net": "nX", "cell": "cX", "channel": "chX",
                "tech": "wifi",
            },
        }
        seen = {}
        for terminal_changes in (False, True):
            for name, changes in outcomes.items():
                after = dict(changes)
                if terminal_changes:
                    after["terminal"] = "mtX"
                ht = classify(_att(), _att(**after))
                if ht is None:
                    assert not terminal_changes and name == "none"
                    continue
                seen[ht.code] = ht
        enumerated = {t.code: t for t in enumerate_types()}
        assert seen == enumerated

    def test_delta_fields(self):
        d = delta(_att(), _att(net="n2", cell="c2", channel="ch2", tech="wifi"))
        assert d.net_changed and d.cell_changed and d.channel_changed and d.tech_changed
        assert not d.terminal_changed and not d.provider_changed

    @given(
        same=st.booleans(),
        channel=st.sampled_from(["ch1", "ch2"]),
        cell=st.sampled_from(["c1", "c2"]),
        net=st.sampled_from(["n1", "n2"]),
    )
    def test_classification_symmetric_in_level(self, same, channel, cell, net):
        a = _att()
        b = _att(terminal="mt1" if same else "mt2", channel=channel, cell=cell, net=net)
        fwd = classify(a, b)
        rev = classify(b, a)
        if fwd is None:
            assert rev is None
        else:
            assert fwd.infra_level is rev.infra_level
            assert fwd.terminal_changed == rev.terminal_changed
