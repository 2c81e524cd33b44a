"""Command line behavior: exit codes, artifacts, and stream separation."""

import json
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

from handoffsim import cli, engine
from handoffsim.cli import main, parse_grid
from handoffsim.metrics import CSV_COLUMNS, metric_cells
from handoffsim.trace import INIT, read_trace

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
        run_init = [r for r in trace.of_kind(INIT) if r.terminal is None][0]
        assert run_init.payload["seed"] == 99

    def test_invalid_scenario(self, broken_scenario, tmp_path, capsys):
        assert main(["run", str(broken_scenario), "--out", str(tmp_path)]) == 2
        assert "tick_ms" in capsys.readouterr().err


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
        ticks = len(doc["terminals"]) * doc["duration_ms"] // doc["tick_ms"]
        points = [{"delta": 0.0}, {"delta": 0.3, "strategy": "reactive"}, {"th_inf": 4.0},
                  {"sp": 0}]
        calls = []
        real = engine.coverage

        def counting(pos, topo):
            calls.append(pos)
            return real(pos, topo)

        monkeypatch.setattr(engine, "coverage", counting)
        batched = cli._sweep_batch(json.dumps(doc), points)
        assert len(calls) == ticks
        assert [r["error"] is None for r in batched] == [True, True, False, True]
        calls.clear()
        alone = [cli._sweep_point(json.dumps(doc), point) for point in points]
        assert len(calls) == 3 * ticks
        assert batched == alone


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
        proc = subprocess.run(
            [sys.executable, "-m", "handoffsim.cli", "validate", CROSSING],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "valid" in proc.stdout
