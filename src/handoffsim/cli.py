"""Command line front end.

Subcommands: validate a scenario file, enumerate the handoff type
taxonomy, run one simulation, or sweep a parameter grid over repeated
runs.  Data goes to stdout (or files under --out); diagnostics go to
stderr.  Exit codes: 0 success, 1 usage error, 2 scenario validation
failure, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from itertools import product
from pathlib import Path
from typing import Optional, Sequence

from . import engine
from .errors import HandoffSimError, ScenarioError
from .metrics import (
    MetricFolder,
    compute_metrics,
    metric_cells,
    snapshots_to_csv,
    snapshots_to_json,
)
from .scenario import from_dict, load_scenario
from .taxonomy import enumerate_types

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID = 2
EXIT_RUNTIME = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; this tool reserves 2 for
    # scenario validation, so usage errors are remapped to 1.
    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> _Parser:
    parser = _Parser(prog="handoffsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_val = sub.add_parser("validate", help="check a scenario file")
    p_val.add_argument("scenario", help="path to a scenario JSON file")

    p_tax = sub.add_parser(
        "enumerate-taxonomy", help="list every handoff type as CSV"
    )
    p_tax.add_argument("--out", help="write CSV here instead of stdout")

    p_run = sub.add_parser("run", help="simulate one scenario")
    p_run.add_argument("scenario", help="path to a scenario JSON file")
    p_run.add_argument("--seed", type=int, help="override the scenario seed")
    p_run.add_argument("--out", default=".", help="directory for output files")
    p_run.add_argument(
        "--no-trace", action="store_true", help="skip writing the trace file"
    )
    p_run.add_argument(
        "--metrics", choices=("csv", "json"), default="csv",
        help="metrics file format",
    )

    p_sweep = sub.add_parser("sweep", help="run a grid of parameter overrides")
    p_sweep.add_argument("scenario", help="path to a scenario JSON file")
    p_sweep.add_argument(
        "--grid", required=True,
        help="semicolon-separated axes, e.g. 'delta=0,0.5;sp=0,200'",
    )
    p_sweep.add_argument("--workers", type=int, default=1, help="parallel runs")
    p_sweep.add_argument("--out", help="write the sweep CSV here instead of stdout")
    return parser


def _cmd_validate(args) -> int:
    try:
        load_scenario(args.scenario)
    except ScenarioError as exc:
        for problem in exc.problems:
            print(f"{args.scenario}: {problem}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print(f"{args.scenario}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    print(f"{args.scenario}: valid")
    return EXIT_OK


def _taxonomy_csv() -> str:
    lines = ["code,terminal_changed,infra_level,verticality,layer"]
    for ht in enumerate_types():
        lines.append(
            ",".join(
                [
                    ht.code,
                    "true" if ht.terminal_changed else "false",
                    ht.infra_level.value,
                    ht.verticality.value,
                    ht.layer.value,
                ]
            )
        )
    return "\n".join(lines) + "\n"


def _cmd_taxonomy(args) -> int:
    text = _taxonomy_csv()
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _metric_rows(scenario, trace):
    """One row per terminal and a pooled "all" row, from one fold."""
    pooled = compute_metrics(trace, scenario.duration_ms)
    rows = [(spec.id, pooled.by_terminal[spec.id]) for spec in scenario.terminals]
    rows.append(("all", pooled))
    return rows


def _cmd_run(args) -> int:
    try:
        scenario = load_scenario(args.scenario)
        if args.seed is not None:
            doc = dict(scenario.raw)
            doc["seed"] = args.seed
            scenario = from_dict(doc)
    except ScenarioError as exc:
        for problem in exc.problems:
            print(f"{args.scenario}: {problem}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print(f"{args.scenario}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME

    try:
        trace = engine.run(scenario)
        rows = _metric_rows(scenario, trace)
    except HandoffSimError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return EXIT_RUNTIME

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = Path(args.scenario).stem
    if not args.no_trace:
        trace_path = out_dir / f"{stem}.trace.ndjson"
        trace.write(trace_path)
        print(f"wrote {trace_path}", file=sys.stderr)
    if args.metrics == "csv":
        text = snapshots_to_csv(rows)
        metrics_path = out_dir / f"{stem}.metrics.csv"
    else:
        text = snapshots_to_json(rows)
        metrics_path = out_dir / f"{stem}.metrics.json"
    metrics_path.write_text(text)
    print(f"wrote {metrics_path}", file=sys.stderr)
    sys.stdout.write(text)
    return EXIT_OK


# Grid axis -> (controller field, value parser).
_GRID_AXES = {
    "delta": ("hysteresis_delta", float),
    "sp": ("dwell_sp", int),
    "th_sup": ("th_sup", float),
    "th_inf": ("th_inf", float),
    "strategy": ("strategy", str),
}

SWEEP_METRIC_COLUMNS = ["completed", "accepted", "hor", "shor", "dtib", "il_ms", "impr"]
# Raises at import if the table does not publish one of the sweep columns.
_sweep_cells = metric_cells(SWEEP_METRIC_COLUMNS)


def parse_grid(text: str) -> list[tuple[str, list]]:
    """Parse 'delta=0,0.5;sp=0,200' into ordered (axis, values) pairs."""
    axes: list[tuple[str, list]] = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValueError(f"grid axis {part!r}: expected name=v1,v2,...")
        name, _, values_text = part.partition("=")
        name = name.strip()
        if name not in _GRID_AXES:
            known = ", ".join(sorted(_GRID_AXES))
            raise ValueError(f"grid axis {name!r}: unknown (expected one of {known})")
        _, parse = _GRID_AXES[name]
        values = []
        for raw in values_text.split(","):
            raw = raw.strip()
            if not raw:
                raise ValueError(f"grid axis {name!r}: empty value")
            try:
                values.append(parse(raw))
            except ValueError:
                raise ValueError(f"grid axis {name!r}: bad value {raw!r}") from None
        if name == "strategy":
            for v in values:
                if v not in ("reactive", "proactive"):
                    raise ValueError(
                        f"grid axis 'strategy': expected reactive or proactive, got {v!r}"
                    )
        if not values:
            raise ValueError(f"grid axis {name!r}: no values")
        axes.append((name, values))
    if not axes:
        raise ValueError("grid: no axes given")
    return axes


def _sweep_point(
    doc_json: str, overrides: dict, shared: Optional[engine.SharedContext] = None
) -> dict:
    """Run one grid point; returns its metric cells or an error message.

    The point keeps no trace: its records are folded as they are made."""
    try:
        doc = json.loads(doc_json)
        controller = dict(doc.get("controller", {}))
        for axis, value in overrides.items():
            controller[_GRID_AXES[axis][0]] = value
        doc["controller"] = controller
        scenario = from_dict(doc)
        snap = engine.run(scenario, shared, MetricFolder(scenario.duration_ms)).snapshot()
    except ScenarioError as exc:
        return {"error": "; ".join(exc.problems)}
    except HandoffSimError as exc:
        return {"error": str(exc)}
    return {"cells": _sweep_cells(snap), "error": None}


def _sweep_batch(doc_json: str, points: list[dict]) -> list[dict]:
    """Run consecutive grid points in grid order, in one process.

    Grid axes set only controller fields, so the points of a batch share
    one context: each terminal-tick's coverage, scores and ranked list are
    computed by the first point and read by the rest.  The memo is freed
    when the batch ends.  Module-level so ProcessPoolExecutor can pickle it.
    """
    shared = engine.SharedContext() if len(points) > 1 else None
    return [_sweep_point(doc_json, point, shared) for point in points]


def _batches(points: list[dict], workers: int) -> list[list[dict]]:
    """Split the points into min(workers, points) contiguous batches whose
    sizes differ by at most one."""
    count = max(1, min(workers, len(points)))
    size, extra = divmod(len(points), count)
    batches, start = [], 0
    for i in range(count):
        end = start + size + (i < extra)
        batches.append(points[start:end])
        start = end
    return batches


def _cmd_sweep(args) -> int:
    try:
        axes = parse_grid(args.grid)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        scenario = load_scenario(args.scenario)
    except ScenarioError as exc:
        for problem in exc.problems:
            print(f"{args.scenario}: {problem}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print(f"{args.scenario}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME

    doc_json = json.dumps(scenario.raw)
    names = [name for name, _ in axes]
    points = [dict(zip(names, combo)) for combo in product(*(vs for _, vs in axes))]

    batches = _batches(points, args.workers)
    if len(batches) > 1:
        with ProcessPoolExecutor(max_workers=len(batches)) as pool:
            done = list(pool.map(_sweep_batch, [doc_json] * len(batches), batches))
    else:
        done = [_sweep_batch(doc_json, points)]
    results = [result for batch in done for result in batch]

    header = names + SWEEP_METRIC_COLUMNS + ["error"]
    lines = [",".join(header)]
    failures = 0
    for point, result in zip(points, results):
        cells = [str(point[name]) for name in names]
        if result.get("error"):
            failures += 1
            cells += ["" for _ in SWEEP_METRIC_COLUMNS]
            cells.append(result["error"].replace(",", ";"))
        else:
            cells += result["cells"] + [""]
        lines.append(",".join(cells))
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    if failures:
        print(f"{failures} of {len(points)} grid points failed", file=sys.stderr)
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    handlers = {
        "validate": _cmd_validate,
        "enumerate-taxonomy": _cmd_taxonomy,
        "run": _cmd_run,
        "sweep": _cmd_sweep,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
