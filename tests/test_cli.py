"""Command line behavior: exit codes, artifacts, and stream separation."""

import copy
import csv
import errno
import gc
import json
import os
import random
import signal
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

from handoffsim import cli, engine
from handoffsim import scenario as scenario_module
from handoffsim.cli import main, parse_grid
from handoffsim.errors import HandoffSimError, PolicyGapError
from handoffsim.metrics import CSV_COLUMNS, compute_metrics, metric_cells
from handoffsim.scenario import from_dict
from handoffsim.trace import HANDOFF, INIT, read_trace
from test_golden import _inputs

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
CROSSING = str(SCENARIO_DIR / "crossing.json")


@pytest.fixture()
def quick_scenario(tmp_path):
    doc = json.loads((SCENARIO_DIR / "crossing.json").read_text())
    doc["duration_ms"] = 2000
    path = tmp_path / "quick.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture()
def broken_scenario(tmp_path):
    doc = json.loads((SCENARIO_DIR / "crossing.json").read_text())
    doc["tick_ms"] = 0
    doc["terminals"] = []
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    return path


class TestValidate:
    def test_valid_file(self, capsys):
        assert main(["validate", CROSSING]) == 0
        captured = capsys.readouterr()
        assert captured.out.strip() == f"{CROSSING}: valid"
        assert captured.err == ""

    def test_invalid_file_lists_problems_on_stderr(self, broken_scenario, capsys):
        assert main(["validate", str(broken_scenario)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "tick_ms" in captured.err
        assert "terminal" in captured.err

    def test_a_strict_policy_with_a_gap_is_invalid(self, tmp_path, capsys):
        # Before a run can fail at its first handoff (9100 ms, L3, video).
        doc = json.loads((SCENARIO_DIR / "crossing.json").read_text())
        doc["policy"] = {"strict": True}
        path = tmp_path / "strict.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"{path}: policy.entries: strict table has no entry for ('L3', 'video'),"
            " which a handoff can reach\n"
        )

    def test_a_strict_policy_that_covers_every_reachable_layer_runs(self, tmp_path, capsys):
        doc = json.loads((SCENARIO_DIR / "crossing.json").read_text())
        doc["policy"] = {"strict": True,
                         "entries": [{"layer": "L3", "app_type": "video", "method": "FMIP"}]}
        path = tmp_path / "strict.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 0
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 0
        capsys.readouterr()
        handoffs = [r for r in read_trace(out / "strict.trace.ndjson").records
                    if r.kind == HANDOFF]
        assert handoffs and {r.payload["method"] for r in handoffs} == {"FMIP"}

    def test_missing_file(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "ghost.json")]) == 3
        assert "ghost.json" in capsys.readouterr().err


class TestUnmeasuredSuccessRegion:
    """A region on a metric the controller never measures would reject every
    handoff; each command refuses the scenario instead."""

    @pytest.fixture()
    def hor_region(self, tmp_path):
        doc = json.loads((SCENARIO_DIR / "crossing.json").read_text())
        doc["success_regions"] = {"HOR": {"direction": "maintain_below", "bound": 100.0}}
        path = tmp_path / "hor.json"
        path.write_text(json.dumps(doc))
        return path

    @pytest.mark.parametrize("extra", [["validate"], ["run", "--no-trace"],
                                       ["sweep", "--grid", "delta=0"]])
    def test_exits_invalid_naming_the_region(self, hor_region, extra, tmp_path, capsys):
        argv = [extra[0], str(hor_region), *extra[1:]]
        if extra[0] == "run":
            argv += ["--out", str(tmp_path)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "success_regions.HOR: not measured by the controller" in captured.err


class TestSuccessRegionKeys:
    def test_a_key_its_direction_never_reads_exits_invalid(self, tmp_path, capsys):
        doc = json.loads((SCENARIO_DIR / "crossing.json").read_text())
        doc["success_regions"] = {"ExLat": {"direction": "minimize", "bound": 5, "lower": 1}}
        path = tmp_path / "region.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"{path}: success_regions.ExLat.lower: not read for direction minimize\n"
        )


class TestEmptyKeepWithinRegion:
    def test_lower_above_upper_exits_invalid(self, tmp_path, capsys):
        # No value lies in [5, 1]: the one completed handoff would be rejected.
        doc = json.loads((SCENARIO_DIR / "crossing.json").read_text())
        doc["success_regions"] = {"ExLat": {"direction": "keep_within", "lower": 5, "upper": 1}}
        path = tmp_path / "region.json"
        path.write_text(json.dumps(doc))
        for argv in (["validate", str(path)], ["run", str(path), "--out", str(tmp_path)]):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"{path}: success_regions.ExLat: lower above upper\n"


class TestPathBeforeTimeZero:
    """Waypoint times need only increase: a path may start before the run."""

    @pytest.fixture()
    def early_path(self, tmp_path):
        doc = json.loads((SCENARIO_DIR / "crossing.json").read_text())
        doc["duration_ms"] = 2000
        doc["terminals"][0]["path"] = [[-500, [0.0, 0.0]], [1500, [130.0, 0.0]]]
        path = tmp_path / "early.json"
        path.write_text(json.dumps(doc))
        return path

    def test_validate(self, early_path, capsys):
        assert main(["validate", str(early_path)]) == 0
        assert capsys.readouterr().out.strip() == f"{early_path}: valid"

    def test_run(self, early_path, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", str(early_path), "--out", str(out)]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert [row.partition(",")[0] for row in rows] == ["terminal", "mt1", "all"]
        assert read_trace(out / "early.trace.ndjson").records


class TestTaxonomy:
    def test_csv_on_stdout(self, capsys):
        assert main(["enumerate-taxonomy"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        assert lines[0] == "code,terminal_changed,infra_level,verticality,layer"
        assert len(lines) == 16  # header + 15 types

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "types.csv"
        assert main(["enumerate-taxonomy", "--out", str(target)]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert str(target) in captured.err
        assert len(target.read_text().strip().split("\n")) == 16

    def test_unwritable_out_is_a_runtime_failure(self, tmp_path, capsys):
        target = _regular_file(tmp_path) / "types.csv"
        assert main(["enumerate-taxonomy", "--out", str(target)]) == 3
        _assert_reported_without_traceback(capsys, target)


def _regular_file(tmp_path):
    """A plain file, which no output path can pass through."""
    path = tmp_path / "plain"
    path.write_text("")
    return path


def _assert_reported_without_traceback(capsys, path):
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{path}: " in captured.err
    assert "Traceback" not in captured.err


class TestRun:
    def test_writes_trace_and_metrics(self, quick_scenario, tmp_path, capsys):
        out = tmp_path / "results"
        assert main(["run", str(quick_scenario), "--out", str(out)]) == 0
        captured = capsys.readouterr()

        trace_path = out / "quick.trace.ndjson"
        metrics_path = out / "quick.metrics.csv"
        assert trace_path.exists()
        assert metrics_path.exists()
        assert str(trace_path) in captured.err
        assert str(metrics_path) in captured.err

        # stdout carries the same metrics text that went to the file
        assert captured.out == metrics_path.read_text()
        header = captured.out.split("\n", 1)[0]
        assert header == ",".join(CSV_COLUMNS)

        trace = read_trace(trace_path)
        assert trace.records[0].kind == INIT

    def test_metrics_json_format(self, quick_scenario, tmp_path, capsys):
        out = tmp_path / "results"
        assert main(["run", str(quick_scenario), "--out", str(out),
                     "--metrics", "json"]) == 0
        doc = json.loads((out / "quick.metrics.json").read_text())
        assert set(doc) == {"mt1", "all"}
        assert json.loads(capsys.readouterr().out) == doc

    def test_no_trace_flag(self, quick_scenario, tmp_path, capsys):
        out = tmp_path / "results"
        assert main(["run", str(quick_scenario), "--out", str(out),
                     "--no-trace"]) == 0
        capsys.readouterr()
        assert not (out / "quick.trace.ndjson").exists()
        assert (out / "quick.metrics.csv").exists()

    def test_seed_override_lands_in_trace(self, quick_scenario, tmp_path, capsys):
        out = tmp_path / "results"
        assert main(["run", str(quick_scenario), "--out", str(out),
                     "--seed", "99"]) == 0
        capsys.readouterr()
        trace = read_trace(out / "quick.trace.ndjson")
        run_init = [r for r in trace.records if r.kind == INIT and r.terminal is None][0]
        assert run_init.payload["seed"] == 99

    def test_a_seed_override_parses_once_and_runs_as_the_seeded_document(
        self, tmp_path, monkeypatch, capsys
    ):
        # noisy.json draws its signals from the seed, so a seed not taken shows.
        doc = json.loads((SCENARIO_DIR / "noisy.json").read_text())
        assert doc["seed"] != 9
        seeded = tmp_path / "seeded" / "noisy.json"
        seeded.parent.mkdir()
        seeded.write_text(json.dumps({**doc, "seed": 9}))
        assert main(["run", str(seeded), "--out", str(tmp_path / "want")]) == 0
        calls = []
        real = scenario_module.from_dict

        def counted(doc):
            calls.append(doc)
            return real(doc)

        monkeypatch.setattr(scenario_module, "from_dict", counted)
        monkeypatch.setattr(cli, "from_dict", counted)
        argv = ["run", str(SCENARIO_DIR / "noisy.json"), "--out", str(tmp_path / "got")]
        assert main(argv + ["--seed", "9"]) == 0
        capsys.readouterr()
        assert len(calls) == 1
        for name in ("noisy.trace.ndjson", "noisy.metrics.csv"):
            got, want = tmp_path / "got" / name, tmp_path / "want" / name
            assert got.read_bytes() == want.read_bytes(), name
        assert main(argv) == 0
        capsys.readouterr()
        assert (tmp_path / "got" / "noisy.trace.ndjson").read_bytes() != (
            tmp_path / "want" / "noisy.trace.ndjson").read_bytes()

    def test_invalid_scenario(self, broken_scenario, tmp_path, capsys):
        assert main(["run", str(broken_scenario), "--out", str(tmp_path)]) == 2
        assert "tick_ms" in capsys.readouterr().err

    @pytest.mark.parametrize("no_trace", [False, True])
    def test_unwritable_out_is_a_runtime_failure(self, quick_scenario, tmp_path, capsys,
                                                 no_trace):
        out = _regular_file(tmp_path) / "sub"
        argv = ["run", str(quick_scenario), "--out", str(out)]
        assert main(argv + ["--no-trace"] * no_trace) == 3
        _assert_reported_without_traceback(capsys, out)

    @pytest.mark.parametrize("no_trace", [False, True])
    def test_a_failed_run_names_its_time_and_terminal(self, tmp_path, capsys, no_trace,
                                                      handoffs_hit_a_policy_gap):
        # The first handoff triggers at 9100 ms, and fails there.
        argv = ["run", CROSSING, "--out", str(tmp_path / "out")]
        assert main(argv + ["--no-trace"] * no_trace) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "run failed at 9100 ms, terminal mt1: policy table has no entry for ('L3', 'video')\n"
        )


class TestBadPathLoss:
    """A malformed path-loss override is a validation failure (exit 2) in
    every command, not a crash in the middle of a run."""

    @pytest.fixture()
    def bad_path_loss(self, tmp_path):
        doc = json.loads((SCENARIO_DIR / "crossing.json").read_text())
        doc["path_loss"] = {"macro": {"exponent": "x"}}
        path = tmp_path / "bad_path_loss.json"
        path.write_text(json.dumps(doc))
        return path

    @pytest.mark.parametrize("argv", [
        ["validate"],
        ["run", "--no-trace"],
        ["sweep", "--grid", "delta=0,0.5"],
    ])
    def test_exits_invalid_naming_the_field(self, bad_path_loss, argv, tmp_path, capsys):
        argv = [argv[0], str(bad_path_loss), *argv[1:]]
        if argv[0] == "run":
            argv += ["--out", str(tmp_path)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "path_loss.macro.exponent: must be a number" in err
        assert "Traceback" not in err


class TestBadCriterionFloor:
    """Scoring takes the log of a criterion's value clamped to its floor, so
    a floor that is not a positive finite number is a validation failure,
    not a math domain error once a value reaches it."""

    @pytest.mark.parametrize("floor, why", [(0.0, "must be > 0"), (-1.0, "must be > 0"),
                                            (float("nan"), "must be finite")])
    @pytest.mark.parametrize("command", [["validate"], ["run"]])
    def test_exits_invalid_naming_the_floor(self, floor, why, command, tmp_path, capsys):
        doc = json.loads((SCENARIO_DIR / "crossing.json").read_text())
        doc["criteria"][0]["floor"] = floor
        for signals in doc["synthesis"]["networks"].values():
            signals["base"]["Q"] = 0.0
        path = tmp_path / "floor.json"
        path.write_text(json.dumps(doc))
        argv = [*command, str(path)]
        if command == ["run"]:
            argv += ["--out", str(tmp_path / "out")]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{path}: criteria[0].floor: {why}" in captured.err
        assert "Traceback" not in captured.err


class TestOverflowingSignal:
    """A ramp that overflows within the horizon once validated and then
    failed the run at 100 ms (exit 3); every command now refuses it."""

    @pytest.mark.parametrize("command", [["validate"], ["run"], ["sweep", "--grid", "delta=0"]])
    def test_exits_invalid_naming_the_ramp(self, command, tmp_path, capsys):
        doc = json.loads((SCENARIO_DIR / "crossing.json").read_text())
        doc["synthesis"]["networks"]["bs_b"]["ramps"]["Q"] = 1e308
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(doc))
        argv = [command[0], str(path), *command[1:]]
        if command == ["run"]:
            argv += ["--out", str(tmp_path / "out")]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"{path}: synthesis.networks.bs_b.ramps.Q: not finite by 11900 ms\n"


class TestOverflowingWalk:
    """A noise so large that the walk overflowed once validated and then
    failed the run at 3000 ms (exit 3); every command now refuses it."""

    @pytest.mark.parametrize("command", [["validate"], ["run"], ["sweep", "--grid", "delta=0"]])
    def test_exits_invalid_naming_the_walk(self, command, tmp_path, capsys):
        doc = json.loads((SCENARIO_DIR / "noisy.json").read_text())
        doc["synthesis"]["noise_sigma"] = 1e308
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(doc))
        argv = [command[0], str(path), *command[1:]]
        if command == ["run"]:
            argv += ["--out", str(tmp_path / "out")]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "".join(
            f"{path}: synthesis.networks.{net}.base.Q: walk may not stay finite\n"
            for net in ("bs_a", "bs_b")
        )


def _rss_weighted(doc, exponent):
    doc["weights"]["weights"] = {"Q": 0.5, "RSS": 0.5}
    doc["path_loss"] = {"macro": {"exponent": exponent}}


class TestOverflowingScore:
    """A K or a path-loss exponent so large that a score or an RSS
    overflowed once validated: K wrote Infinity into every ``anl`` record,
    and the exponent failed the run at 0 ms (exit 3).  Every command now
    refuses both."""

    @pytest.mark.parametrize("edit, problem", [
        (lambda doc: doc["weights"].update(k=1e308),
         "weights.k: scores may not stay finite with K = 1e+308"),
        (lambda doc: _rss_weighted(doc, 1e308), "path_loss.macro.exponent: RSS may not stay finite"),
        (lambda doc: _rss_weighted(doc, -1e308), "path_loss.macro.exponent: RSS may not stay finite"),
    ], ids=["k", "exponent", "negative-exponent"])
    @pytest.mark.parametrize("command", [["validate"], ["run"], ["sweep", "--grid", "delta=0"]])
    def test_exits_invalid_naming_the_field(self, edit, problem, command, tmp_path, capsys):
        doc = json.loads((SCENARIO_DIR / "crossing.json").read_text())
        edit(doc)
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(doc))
        argv = [command[0], str(path), *command[1:]]
        if command == ["run"]:
            argv += ["--out", str(tmp_path / "out")]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"{path}: {problem}\n"


_PATH = ("terminals", 0, "path")


class TestTimesNoFloatHolds:
    """An integer time that no float can hold made ``validate`` (for
    ``duration_ms`` and ``tick_ms``) or ``run`` (for a path time, or two
    whose difference is one) exit 1 with an OverflowError traceback, and a
    ``duration_ms`` of ``10**400`` on a stochastic scenario validated and
    then ran without end.  Every command now refuses each at its field
    path."""

    @pytest.mark.parametrize("name, edits, problem", [
        ("crossing.json", {("duration_ms",): 10**400}, "duration_ms: too large for a float"),
        ("crossing.json", {("tick_ms",): 10**400}, "tick_ms: too large for a float"),
        ("noisy.json", {("duration_ms",): 10**400}, "duration_ms: too large for a float"),
        ("noisy.json", {(*_PATH, 1, 0): 10**400},
         "terminals[0].path[1]: time too large for a float"),
        ("noisy.json", {(*_PATH, 0, 0): -10**400},
         "terminals[0].path[0]: time too large for a float"),
        ("noisy.json", {(*_PATH, 0, 0): -10**308, (*_PATH, 1, 0): 10**308},
         "terminals[0].path[1]: time since the last waypoint too large for a float"),
    ], ids=["duration", "tick", "noisy-duration", "path-time", "negative-path-time",
            "path-gap"])
    @pytest.mark.parametrize("command", [["validate"], ["run"]])
    def test_exits_invalid_naming_the_time(self, name, edits, problem, command,
                                           tmp_path, capsys):
        doc = json.loads((SCENARIO_DIR / name).read_text())
        for keys, value in edits.items():
            node = doc
            for key in keys[:-1]:
                node = node[key]
            node[keys[-1]] = value
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        argv = [command[0], str(path)]
        if command == ["run"]:
            argv += ["--out", str(tmp_path / "out")]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"{path}: {problem}\n"
        assert not (tmp_path / "out").exists()


class TestTerminalIdsInMetricRows:
    """Each terminal id labels its own metrics row, next to the pooled "all"
    row, in the CSV and as a JSON key."""

    @staticmethod
    def _renamed(tmp_path, ids):
        doc = json.loads((SCENARIO_DIR / "crossing.json").read_text())
        doc["duration_ms"] = 2000
        [term] = doc["terminals"]
        doc["terminals"] = [{**term, "id": tid} for tid in ids]
        path = tmp_path / "renamed.json"
        path.write_text(json.dumps(doc))
        return path

    @pytest.mark.parametrize("command", [["validate"], ["run", "--metrics", "json"], ["run"]])
    def test_the_pooled_label_is_no_terminal_id(self, command, tmp_path, capsys):
        path = self._renamed(tmp_path, ["all"])
        argv = [*command[:1], str(path), *command[1:]]
        if command[0] == "run":
            argv += ["--out", str(tmp_path / "out")]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f'{path}: terminals[0].id: "all" is reserved for the pooled row' in captured.err
        assert not (tmp_path / "out").exists()

    def test_a_csv_reader_reads_back_every_id(self, tmp_path, capsys):
        ids = ["mt,1", 'a"b', "x\ny"]
        path = self._renamed(tmp_path, ids)
        assert main(["run", str(path), "--out", str(tmp_path / "out"), "--no-trace"]) == 0
        capsys.readouterr()
        text = (tmp_path / "out" / "renamed.metrics.csv").read_text()
        rows = list(csv.reader(text.splitlines(keepends=True)))
        assert rows[0] == CSV_COLUMNS
        assert [row[0] for row in rows[1:]] == [*ids, "all"]
        assert {len(row) for row in rows} == {len(CSV_COLUMNS)}
        assert rows[1][1:] == rows[2][1:] == rows[3][1:]


class TestParseGrid:
    def test_axes_keep_given_order(self):
        axes = parse_grid("sp=0,200;delta=0,0.5")
        assert axes == [("sp", [0, 200]), ("delta", [0.0, 0.5])]

    def test_strategy_values_validated(self):
        axes = parse_grid("strategy=reactive,proactive")
        assert axes == [("strategy", ["reactive", "proactive"])]
        with pytest.raises(ValueError, match="expected reactive or proactive"):
            parse_grid("strategy=psychic")

    def test_unknown_axis(self):
        with pytest.raises(ValueError, match="unknown"):
            parse_grid("warp=1,2")

    def test_bad_numeric_value(self):
        with pytest.raises(ValueError, match="bad value"):
            parse_grid("delta=fast")

    def test_missing_equals(self):
        with pytest.raises(ValueError, match="expected name=v1,v2"):
            parse_grid("delta")

    def test_empty_grid(self):
        with pytest.raises(ValueError, match="no axes"):
            parse_grid(" ; ")

    def test_repeated_axis(self):
        # Each point maps axis -> value, so a second "delta" would overwrite
        # the first and label every row with the last value.
        with pytest.raises(ValueError, match="'delta': given more than once"):
            parse_grid("delta=0.1,0.2;sp=0; delta =0.5")


class TestBadMetricsConstants:
    """``metrics_constants`` feeds the pass-through rows of the metric table.
    Anything else there is a validation failure (exit 2), not a traceback
    and not a value that silently vanishes from the output."""

    @pytest.mark.parametrize("constants, problem", [
        (["AL"], "metrics_constants: not an object"),
        ({"CB": 2.0}, "metrics_constants.CB: unknown constant"),
        ({"AL": "x"}, "metrics_constants.AL: must be a number"),
        ({"SO": True}, "metrics_constants.SO: must be a number"),
        ({"AL": float("nan")}, "metrics_constants.AL: must be finite"),
    ], ids=["not_an_object", "unknown", "string", "bool", "nan"])
    def test_run_exits_invalid_naming_the_key(self, constants, problem, tmp_path, capsys):
        doc = json.loads((SCENARIO_DIR / "crossing.json").read_text())
        doc["metrics_constants"] = constants
        path = tmp_path / "constants.json"
        path.write_text(json.dumps(doc))
        assert main(["run", str(path), "--out", str(tmp_path), "--no-trace"]) == 2
        err = capsys.readouterr().err
        assert problem in err
        assert "Traceback" not in err


def _station(doc):
    return doc["topology"]["providers"][0]["nets"][0]["stations"][0]


class TestMalformedScenarioExitsInvalid:
    """Values of the wrong JSON type anywhere in a document are validation
    failures (exit 2) named by their field path, never a traceback."""

    @pytest.mark.parametrize("edit, field", [
        (lambda d: d.update(terminals=["x"]), "terminals[0]"),
        (lambda d: _station(d).update(radius="big"),
         "topology.providers[0].nets[0].stations[0].radius"),
        (lambda d: d.update(weights=[]), "weights"),
        (lambda d: d["controller"].update(dwell_sp="x"), "controller.dwell_sp"),
        (lambda d: d.update(policy=[]), "policy"),
        (lambda d: d["synthesis"]["networks"]["bs_a"].update(base={"Q": "x"}),
         "synthesis.networks.bs_a.base.Q"),
        (lambda d: _station(d).update(position=["a", "b"]),
         "topology.providers[0].nets[0].stations[0].position"),
        (lambda d: d["synthesis"]["networks"]["bs_b"]["ramps"].update(Zed=1.0),
         "synthesis.networks.bs_b.ramps.Zed"),
    ], ids=["terminal", "radius", "weights", "dwell_sp", "policy", "base", "position",
            "criterion"])
    def test_run_exits_invalid_naming_the_field(self, edit, field, tmp_path, capsys):
        doc = json.loads((SCENARIO_DIR / "crossing.json").read_text())
        edit(doc)
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(doc))
        assert main(["run", str(path), "--out", str(tmp_path), "--no-trace"]) == 2
        err = capsys.readouterr().err
        assert f"{path}: {field}: " in err
        assert "Traceback" not in err


class TestUnparseableFile:
    """A file the JSON parser cannot turn into a document, or can only by
    exceeding its limits, is a validation failure (exit 2) reported in one
    line, in every command."""

    @pytest.mark.parametrize("content, problem", [
        (b'{"seed": "\xff"}', "not UTF-8"),
        (b'{"seed": ' + b"9" * 5000 + b"}", "not parseable as JSON"),
        (b"[" * 100_000 + b"]" * 100_000, "nested too deeply"),
    ], ids=["not_utf8", "long_integer", "deep_nesting"])
    @pytest.mark.parametrize("argv", [
        ["validate"],
        ["run", "--no-trace"],
        ["sweep", "--grid", "delta=0,0.5"],
    ], ids=["validate", "run", "sweep"])
    def test_exits_invalid_in_one_line(self, content, problem, argv, tmp_path, capsys):
        path = tmp_path / "unparseable.json"
        path.write_bytes(content)
        argv = [argv[0], str(path), *argv[1:]]
        if argv[0] == "run":
            argv += ["--out", str(tmp_path)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith(f"{path}: ")
        assert problem in captured.err
        assert "Traceback" not in captured.err


class TestSweep:
    def test_metric_columns_are_drawn_from_the_table(self, quick_scenario, capsys):
        assert main(["sweep", str(quick_scenario), "--grid", "delta=0"]) == 0
        header = capsys.readouterr().out.split("\n", 1)[0].split(",")
        assert header == ["delta", *cli.SWEEP_METRIC_COLUMNS, "error"]
        assert set(cli.SWEEP_METRIC_COLUMNS) <= set(CSV_COLUMNS)
        with pytest.raises(KeyError):
            metric_cells(["ouir"])

    def test_grid_rows_in_cartesian_order(self, quick_scenario, capsys):
        assert main(["sweep", str(quick_scenario),
                     "--grid", "delta=0,0.5;th_sup=3,4"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        header = lines[0].split(",")
        assert header[:2] == ["delta", "th_sup"]
        assert header[-1] == "error"
        combos = [tuple(line.split(",")[:2]) for line in lines[1:]]
        assert combos == [("0.0", "3.0"), ("0.0", "4.0"),
                          ("0.5", "3.0"), ("0.5", "4.0")]

    def test_failing_point_fills_error_column(self, quick_scenario, capsys):
        # th_inf = 4 collides with the scenario's th_sup = 4
        assert main(["sweep", str(quick_scenario),
                     "--grid", "th_inf=0.5,4"]) == 0
        captured = capsys.readouterr()
        lines = captured.out.strip().split("\n")
        ok_row = lines[1].split(",")
        bad_row = lines[2].split(",")
        assert ok_row[-1] == ""
        assert "th_inf" in bad_row[-1]
        assert "," not in bad_row[-1]  # commas folded so the CSV stays rectangular
        assert "1 of 2 grid points failed" in captured.err

    def test_out_file(self, quick_scenario, tmp_path, capsys):
        target = tmp_path / "sweep.csv"
        assert main(["sweep", str(quick_scenario), "--grid", "delta=0",
                     "--out", str(target)]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert target.read_text().startswith("delta,")

    def test_unwritable_out_is_a_runtime_failure(self, quick_scenario, tmp_path, capsys):
        target = _regular_file(tmp_path) / "x.csv"
        assert main(["sweep", str(quick_scenario), "--grid", "delta=0",
                     "--out", str(target)]) == 3
        _assert_reported_without_traceback(capsys, target)

    def test_parallel_workers_match_serial(self, quick_scenario, capsys):
        assert main(["sweep", str(quick_scenario),
                     "--grid", "delta=0,0.5;sp=0,200"]) == 0
        serial = capsys.readouterr().out
        assert main(["sweep", str(quick_scenario),
                     "--grid", "delta=0,0.5;sp=0,200", "--workers", "2"]) == 0
        parallel = capsys.readouterr().out
        assert parallel == serial

    def test_bad_grid_is_usage_error(self, quick_scenario, capsys):
        assert main(["sweep", str(quick_scenario), "--grid", "warp=1"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_repeated_axis_is_usage_error(self, quick_scenario, capsys):
        grid = "delta=0.1,0.2;delta=0.5"
        assert main(["sweep", str(quick_scenario), "--grid", grid]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: grid axis 'delta': given more than once" in captured.err

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_fewer_than_one_worker_is_usage_error(self, quick_scenario, workers, capsys):
        argv = ["sweep", str(quick_scenario), "--grid", "delta=0", "--workers", workers]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: --workers: expected at least 1, got {workers}" in captured.err


def _sweep(path, grid, workers, capsys):
    assert main(["sweep", str(path), "--grid", grid, "--workers", str(workers)]) == 0
    captured = capsys.readouterr()
    return captured.out, captured.err


def _points_run_alone(path, grid, capsys):
    """The sweep CSV assembled from one-point sweeps, which share nothing."""
    axes = parse_grid(grid)
    rows = []
    for combo in product(*(values for _, values in axes)):
        point = ";".join(f"{name}={value}" for (name, _), value in zip(axes, combo))
        header, row = _sweep(path, point, 1, capsys)[0].splitlines()
        rows.append(row)
    return "\n".join([header, *rows]) + "\n"


class TestSweepBatches:
    """Consecutive points run in one batch per worker and share the context;
    the CSV must equal the one from points run alone."""

    # th_inf=4 meets both scenarios' th_sup=4, so every other point is invalid.
    GRID = "strategy=reactive,proactive;delta=0,0.3;th_inf=0.5,4"

    @pytest.mark.parametrize("scenario", ["noisy.json", "crossing.json"])
    def test_batches_match_points_run_alone(self, scenario, capsys):
        path = SCENARIO_DIR / scenario
        want = _points_run_alone(path, self.GRID, capsys)
        assert want.count("must be strictly below") == 4
        for workers in (1, 2, 3):
            out, err = _sweep(path, self.GRID, workers, capsys)
            assert out == want, workers
            assert "4 of 8 grid points failed" in err

    def test_more_workers_than_points(self, capsys):
        grid = "th_inf=0.5,4;strategy=proactive"
        path = SCENARIO_DIR / "noisy.json"
        assert _sweep(path, grid, 5, capsys)[0] == _points_run_alone(path, grid, capsys)

    def test_batches_are_contiguous_and_near_equal(self):
        points = [{"delta": i} for i in range(8)]
        assert [len(b) for b in cli._batches(points, 3)] == [3, 3, 2]
        assert [p for b in cli._batches(points, 3) for p in b] == points
        assert cli._batches(points, 1) == [points]
        assert cli._batches(points[:2], 5) == [points[:1], points[1:2]]
        assert cli._batches(points, 0) == [points]

    def test_a_batch_computes_each_terminal_tick_once(self, monkeypatch):
        doc = json.loads((SCENARIO_DIR / "noisy.json").read_text())
        sc = from_dict(doc)
        ticks = len(sc.terminals) * sc.duration_ms // sc.tick_ms
        points = [{"delta": 0.0}, {"delta": 0.3, "strategy": "reactive"}, {"th_inf": 4.0},
                  {"sp": 0}]
        checked = cli._point_controllers(doc, points)
        assert [type(c) is str for c in checked] == [False, False, True, False]
        assert "th_inf" in checked[2]
        controllers = [c for c in checked if type(c) is not str]
        terminals = [term.id for term in sc.terminals]
        calls = []
        real = engine.rank

        # rank runs once per terminal-tick context; coverage may be reused.
        def counting(scores):
            calls.append(scores)
            return real(scores)

        monkeypatch.setattr(engine, "rank", counting)
        batched = cli._sweep_batch(sc, terminals, controllers)
        assert len(calls) == ticks
        assert [failure for _, failure in batched] == [None, None, None]
        calls.clear()
        alone = [cli._sweep_batch(sc, terminals, [c]) for c in controllers]
        assert len(calls) == 3 * ticks
        assert batched == [result for (result,) in alone]


def _small_overlay() -> dict:
    """A scenario shaped like the benchmark workloads, at a small size: a
    tiered overlay with seeded AR(1) signals and straight-line terminals."""
    rng = random.Random("small-overlay")
    nets = [[] for _ in range(4)]
    networks = {}
    for tier, count in {"macro": 2, "micro": 4, "pico": 6}.items():
        for i in range(count):
            sid = f"{tier}{i:03d}"
            pos = [round(rng.uniform(0.0, 800.0), 3), round(rng.uniform(0.0, 800.0), 3)]
            nets[i % 4].append({"id": sid, "position": pos, "technology": "lte",
                                "tier": tier, "channels": [f"{sid}c"]})
            networks[sid] = {"base": {"Q": round(rng.uniform(5e3, 5e4), 1)}}
    terminals = []
    for i in range(2):
        start = [round(rng.uniform(100.0, 700.0), 3) for _ in range(2)]
        end = [round(rng.uniform(0.0, 800.0), 3) for _ in range(2)]
        terminals.append({"id": f"mt{i:03d}", "path": [[0, start], [4000, end]]})
    return {
        "seed": 3,
        "duration_ms": 4000,
        "tick_ms": 100,
        "topology": {"providers": [
            {"id": f"prov{p}", "nets": [{"id": f"net{p}{n}", "stations": nets[2 * p + n]}
                                        for n in range(2)]}
            for p in range(2)
        ]},
        "terminals": terminals,
        "criteria": [{"id": "Q", "source": "network", "polarity": "beneficial"}],
        "weights": {"k": 0.0, "weights": {"Q": 1.0}},
        "controller": {"hysteresis_delta": 0.05, "th_sup": 3.0, "th_inf": 1.0, "dwell_sp": 200,
                       "prep_latency": 100, "exec_latency": 100, "eval_latency": 100},
        "synthesis": {"mode": "stochastic", "ar1_rho": 0.9, "noise_sigma": 8000.0,
                      "networks": networks},
    }


class _InProcessChild:
    """Stands in for ``cli._Child``, the fork helper: runs its task here, as
    it is started, and hands the result back as is."""

    def __init__(self, fn, *args):
        self.value = fn(*args)

    def result(self):
        return self.value

    def reap(self):
        pass


def _count_forks(monkeypatch, fail_at=None):
    """The ``os.fork`` calls made from now on, each one listed; the call
    numbered ``fail_at`` raises EAGAIN instead of forking."""
    real_fork, calls = os.fork, []

    def fork():
        calls.append(None)
        if len(calls) == fail_at:
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    return calls


class TestSweepTerminalGroups:
    """Workers split the sorted terminals and each runs every point over its
    own; the pooled rows must equal those of points run alone."""

    # Every input here has th_sup = 3, so th_inf = 3.5 makes a point invalid.
    DENSE_GRID = "delta=0,0.3;th_inf=0.5,3.5"
    SMALL_GRID = "delta=0.02,0.1;th_inf=1,3.5;sp=0,400"

    @pytest.fixture(scope="class")
    def inputs(self):
        return _inputs()

    def _write(self, tmp_path, name, doc):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        return path

    @pytest.mark.parametrize("name", ["dense_geometric", "dense_stochastic", "dense_rss", "small"])
    def test_groups_match_points_run_alone(self, inputs, name, tmp_path, capsys):
        doc = _small_overlay() if name == "small" else inputs[name]
        grid = self.SMALL_GRID if name == "small" else self.DENSE_GRID
        path = self._write(tmp_path, name, doc)
        want = _points_run_alone(path, grid, capsys)
        points = want.count("\n") - 1
        assert want.count("must be strictly below") == points // 2
        for workers in (1, 2, 3, 5):
            out, err = _sweep(path, grid, workers, capsys)
            assert out == want, workers
            assert f"{points // 2} of {points} grid points failed" in err

    @pytest.mark.parametrize("workers", [1, 2, 3, 5])
    def test_each_worker_computes_its_terminal_ticks_once(
        self, inputs, workers, tmp_path, monkeypatch, capsys
    ):
        doc = inputs["dense_stochastic"]
        path = self._write(tmp_path, "dense", doc)
        grid = "delta=0,0.3;sp=0,400"
        want = _sweep(path, grid, 1, capsys)[0]
        ticks = doc["duration_ms"] // doc["tick_ms"]
        calls, tasks = [], []
        real_rank, real_batch = engine.rank, cli._sweep_batch

        # rank runs once per terminal-tick context; coverage may be reused.
        def counting(scores):
            calls.append(scores)
            return real_rank(scores)

        def batch(scenario, terminals, controllers):
            calls.clear()
            results = real_batch(scenario, terminals, controllers)
            tasks.append((list(terminals), len(controllers), len(calls)))
            return results

        monkeypatch.setattr(engine, "rank", counting)
        monkeypatch.setattr(cli, "_sweep_batch", batch)
        # Tasks that would run in forked children run here, in task order.
        monkeypatch.setattr(cli, "_Child", _InProcessChild)
        assert _sweep(path, grid, workers, capsys)[0] == want
        terminals = sorted(term["id"] for term in doc["terminals"])
        assert [group for group, _, _ in tasks] == cli._batches(terminals, workers)
        for group, points, rank_calls in tasks:
            assert points == 4
            assert rank_calls == len(group) * ticks

    @pytest.mark.parametrize("workers, tasks", [(2, 2), (3, 3)])
    def test_forks_a_child_for_every_task_but_one(
        self, quick_scenario, workers, tasks, monkeypatch, capsys
    ):
        # One terminal, so the six points are split into `workers` tasks.
        grid = "delta=0,0.1,0.2;sp=0,200"
        want = _sweep(quick_scenario, grid, 1, capsys)[0]
        forks = _count_forks(monkeypatch)
        assert _sweep(quick_scenario, grid, workers, capsys)[0] == want
        assert len(forks) == tasks - 1

    def test_without_fork_every_task_runs_here(self, inputs, tmp_path, monkeypatch, capsys):
        path = self._write(tmp_path, "dense", inputs["dense_stochastic"])
        grid = "delta=0,0.3;sp=0,400"
        want = _sweep(path, grid, 1, capsys)[0]
        monkeypatch.delattr(os, "fork")
        for workers in (2, 3):
            assert _sweep(path, grid, workers, capsys)[0] == want, workers

    @pytest.mark.parametrize("workers", [2, 3])
    def test_workers_inherit_the_parsed_scenario(
        self, inputs, workers, tmp_path, monkeypatch, capsys
    ):
        # Each call appends its process id to a file, so a call in a forked
        # worker is seen here too.
        path = self._write(tmp_path, "dense", inputs["dense_stochastic"])
        log = tmp_path / "from_dict.pids"
        real = scenario_module.from_dict

        def logged(doc):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            return real(doc)

        monkeypatch.setattr(scenario_module, "from_dict", logged)
        monkeypatch.setattr(cli, "from_dict", logged)
        out, err = _sweep(path, "delta=0,0.3;sp=0,400", workers, capsys)
        assert out.count("\n") == 5 and "failed" not in err
        assert log.read_text().split() == [str(os.getpid())]

    def test_a_failing_point_reports_the_first_failure_in_event_order(
            self, tmp_path, capsys, handoffs_hit_a_policy_gap):
        # Each handoff fails where it triggers.  mt2 (voice) triggers at
        # 9100 ms; mt1 (video) stays out of bs_b's reach until 10100 ms, so
        # the terminal with the larger id fails first.
        doc = json.loads((SCENARIO_DIR / "crossing.json").read_text())
        doc["terminals"] = [
            {"id": "mt1", "app_type": "video",
             "path": [[0, [-940.0, 0.0]], [10000, [-940.0, 0.0]], [10100, [0.0, 0.0]]]},
            {"id": "mt2", "app_type": "voice", "path": [[0, [0.0, 0.0]]]},
        ]
        with pytest.raises(PolicyGapError) as failed:
            engine.run(from_dict(copy.deepcopy(doc)))
        assert failed.value.at == (9100, "mt2")
        path = self._write(tmp_path, "two", doc)
        for workers in (1, 2, 3):
            out, err = _sweep(path, "delta=0,0.1", workers, capsys)
            errors = [line.rsplit(",", 1)[1] for line in out.splitlines()[1:]]
            assert errors == ["policy table has no entry for ('L3'; 'voice')",
                              "policy table has no entry for ('L3'; 'video')"], workers
            assert "2 of 2 grid points failed" in err


class TestSweepFailureIsolation:
    """A batch's points run in one engine pass, yet each row is its point's
    run alone: a controller error stops only its own point, and a context
    error stops every point still running at that event, while a point that
    failed earlier keeps its own error."""

    # With each handoff failing where it triggers, delta 0 fails at 9100 ms
    # and 0.1 at 11600 ms, while 1e6 never hands off and runs to the end.
    DELTAS = (0.0, 1e6, 0.1)

    @pytest.fixture()
    def crossing(self, handoffs_hit_a_policy_gap):
        return json.loads((SCENARIO_DIR / "crossing.json").read_text()), CROSSING

    def _rows_alone(self, doc):
        """Each point's row, from its own ``engine.run``."""
        rows = []
        for delta in self.DELTAS:
            point = copy.deepcopy(doc)
            point["controller"]["hysteresis_delta"] = delta
            sc = from_dict(point)
            try:
                trace = engine.run(sc)
            except HandoffSimError as exc:
                cells = [""] * len(cli.SWEEP_METRIC_COLUMNS) + [str(exc).replace(",", ";")]
            else:
                cells = cli._sweep_cells(compute_metrics(trace, sc.duration_ms)) + [""]
            rows.append(",".join([str(delta), *cells]))
        return rows

    def _check(self, path, want, capsys):
        grid = "delta=" + ",".join(str(d) for d in self.DELTAS)
        failed = sum(not row.endswith(",") for row in want)
        for workers in (1, 2, 3):
            out, err = _sweep(path, grid, workers, capsys)
            assert out.splitlines()[1:] == want, workers
            assert f"{failed} of 3 grid points failed" in err

    def test_a_controller_error_stops_only_its_point(self, crossing, capsys):
        doc, path = crossing
        want = self._rows_alone(doc)
        assert [row.endswith(",") for row in want] == [False, True, False]
        self._check(path, want, capsys)

    def test_a_context_error_stops_every_live_point(self, crossing, monkeypatch, capsys):
        real = engine.sample_context

        def failing(net, t, *args):
            if t == 10000:
                raise HandoffSimError("no context at 10000 ms")
            return real(net, t, *args)

        monkeypatch.setattr(engine, "sample_context", failing)
        doc, path = crossing
        want = self._rows_alone(doc)
        assert [row.rsplit(",", 1)[1] for row in want] == [
            "policy table has no entry for ('L3'; 'video')", "no context at 10000 ms",
            "no context at 10000 ms",
        ]
        self._check(path, want, capsys)


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


class TestCyclePause:
    """``main`` runs its command with the cycle collector paused, so every
    record must be freed by reference counting alone: a run may make no
    reference cycle, or a long run under the pause would grow its memory."""

    @pytest.fixture(scope="class")
    def metro(self):
        """A small benchmark-shaped scenario document, read from the
        benchmark's generator without writing bytecode into its folder."""
        sys.path.insert(0, str(PERFBENCH))
        dont_write = sys.dont_write_bytecode
        sys.dont_write_bytecode = True
        try:
            import workloads
        finally:
            sys.dont_write_bytecode = dont_write
            sys.path.remove(str(PERFBENCH))
            sys.modules.pop("workloads", None)
        return workloads.metro(7, 0.25)[0]

    @pytest.mark.parametrize("name", ["crossing", "noisy", "metro_1s", "metro_2s"])
    def test_run_and_sweep_leave_only_what_validate_leaves(self, name, metro, tmp_path, capsys):
        if name.startswith("metro"):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({**metro, "duration_ms": int(name[-2]) * 1000}))
        else:
            path = SCENARIO_DIR / f"{name}.json"
        commands = {
            "validate": ["validate", str(path)],
            "run": ["run", str(path), "--out", str(tmp_path)],
            "run --no-trace": ["run", str(path), "--out", str(tmp_path), "--no-trace"],
            "sweep": ["sweep", str(path), "--grid", "delta=0,0.2;sp=0,300", "--workers", "1"],
        }
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            left = {}
            for what, argv in commands.items():
                assert main(argv) == 0, what
                left[what] = gc.collect()  # the unreachable objects the command left
        finally:
            if enabled:
                gc.enable()
        capsys.readouterr()
        assert left["validate"] > 0  # the argument parser's own cycles
        assert left == dict.fromkeys(commands, left["validate"])

    @pytest.mark.parametrize("enabled", [True, False])
    def test_main_leaves_the_collector_as_it_found_it(
        self, enabled, broken_scenario, tmp_path, monkeypatch, capsys
    ):
        seen = []
        real = cli._cmd_validate

        def validate(args):
            seen.append(gc.isenabled())
            return real(args)

        monkeypatch.setattr(cli, "_cmd_validate", validate)
        was = gc.isenabled()
        try:
            gc.enable() if enabled else gc.disable()
            for argv, code in [(["validate", CROSSING], 0), ([], 1),
                               (["validate", str(broken_scenario)], 2),
                               (["validate", str(tmp_path / "ghost.json")], 3)]:
                assert main(argv) == code
                assert gc.isenabled() is enabled, argv
            for failure in (RuntimeError("boom"), SystemExit(3), KeyboardInterrupt()):
                def fail(args, failure=failure):
                    seen.append(gc.isenabled())
                    raise failure

                monkeypatch.setattr(cli, "_cmd_validate", fail)
                with pytest.raises(type(failure)):
                    main(["validate", CROSSING])
                assert gc.isenabled() is enabled, failure
        finally:
            gc.enable() if was else gc.disable()
        capsys.readouterr()
        assert seen == [False] * 6  # every command ran paused


def _unreadable():
    raise ValueError("this result cannot be rebuilt")


class _Unreadable:
    """Pickles, but raises when unpickled."""

    def __reduce__(self):
        return _unreadable, ()


class TestSweepWorkerFailure:
    """A worker process that cannot be started, or that dies, fails the
    sweep as a runtime failure, in one line, with no traceback, and leaves
    no child behind."""

    def _assert_one_line_failure(self, path, capsys, grid="delta=0,0.1", workers=2):
        argv = ["sweep", str(path), "--grid", grid, "--workers", str(workers)]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("sweep failed: ")
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        return captured.err

    def _in_children(self, monkeypatch, child_batch):
        """Run ``child_batch`` in place of ``_sweep_batch`` in forked children."""
        parent, real = os.getpid(), cli._sweep_batch

        def batch(*args):
            return real(*args) if os.getpid() == parent else child_batch(*args)

        monkeypatch.setattr(cli, "_sweep_batch", batch)

    def test_a_worker_that_dies(self, quick_scenario, monkeypatch, capsys):
        self._in_children(monkeypatch, lambda *args: os._exit(7))
        err = self._assert_one_line_failure(quick_scenario, capsys)
        assert err == "sweep failed: a worker process exited with status 7\n"

    def test_a_worker_killed_by_a_signal(self, quick_scenario, monkeypatch, capsys):
        self._in_children(monkeypatch, lambda *args: os.kill(os.getpid(), signal.SIGKILL))
        err = self._assert_one_line_failure(quick_scenario, capsys)
        assert err == f"sweep failed: a worker process was killed by signal {signal.SIGKILL}\n"

    def test_a_worker_that_cannot_be_started(self, quick_scenario, monkeypatch, capsys):
        forks = _count_forks(monkeypatch, fail_at=2)
        # One terminal and three points make three tasks: two to fork.
        err = self._assert_one_line_failure(quick_scenario, capsys, "delta=0,0.1,0.2", 3)
        assert len(forks) == 2
        assert err == "sweep failed: cannot start a worker process: " \
                      "Resource temporarily unavailable\n"

    def test_a_result_that_cannot_be_unpickled(self, quick_scenario, monkeypatch, capsys):
        self._in_children(monkeypatch, lambda *args: [_Unreadable()])
        err = self._assert_one_line_failure(quick_scenario, capsys)
        assert "a worker process sent a result that cannot be read" in err
        assert "this result cannot be rebuilt" in err

    def test_an_error_here_still_reaps_every_child(self, quick_scenario, monkeypatch, capsys):
        parent, real = os.getpid(), cli._sweep_batch

        def batch(*args):
            if os.getpid() == parent:
                raise RuntimeError("this process's own task failed")
            return real(*args)

        monkeypatch.setattr(cli, "_sweep_batch", batch)
        forks = _count_forks(monkeypatch)
        with pytest.raises(RuntimeError, match="own task failed"):
            main(["sweep", str(quick_scenario), "--grid", "delta=0,0.1,0.2", "--workers", "3"])
        capsys.readouterr()
        assert len(forks) == 2
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


class TestUsage:
    def test_no_arguments(self, capsys):
        assert main([]) == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert main(["transmogrify"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_required_argument(self, capsys):
        assert main(["validate"]) == 1
        capsys.readouterr()

    def test_module_entry_point(self):
        # The child imports the package from this checkout, as the suite does.
        src = str(Path(cli.__file__).resolve().parent.parent)
        proc = subprocess.run(
            [sys.executable, "-m", "handoffsim.cli", "validate", CROSSING],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
        )
        assert proc.returncode == 0
        assert "valid" in proc.stdout
