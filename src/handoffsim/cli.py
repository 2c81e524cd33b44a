"""Command line front end.

Subcommands: validate a scenario file, enumerate the handoff type
taxonomy, run one simulation, or sweep a parameter grid over repeated
runs.  Data goes to stdout (or files under --out); diagnostics go to
stderr.  Exit codes: 0 success, 1 usage error, 2 scenario validation
failure, 3 runtime failure (an unreadable input, an unwritable output,
an engine error, a sweep worker that cannot be started or that dies).

Each command runs with the cycle collector paused: a run makes no
reference cycle, so reference counting frees all it makes, and
``tests/test_cli.py`` pins that.

Each command that takes a scenario reads its file once and parses it
once; ``run --seed`` replaces the parsed seed.  ``run`` and ``sweep``
import the engine where they start, so ``validate`` and
``enumerate-taxonomy`` load none of it.

A sweep parses the scenario once and each grid point only in its
controller part.  ``--workers N`` means N processes, this one included,
and they split the sorted terminals, not the points: each runs every
point over its own terminals in one engine pass, and the points'
per-terminal fold results are pooled here in terminal order.  With fewer
terminals than workers the points are split as well.  This process runs
the last share itself; each other share runs in a child forked from it,
which inherits the parsed scenario and the paused collector and sends
its results back pickled over a pipe.  Where ``os.fork`` does not exist,
this process runs every share in turn.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from itertools import product
from pathlib import Path
from typing import Optional, Sequence

from .errors import HandoffSimError, ScenarioError
from .metrics import (
    MetricFolder,
    compute_metrics,
    metric_cells,
    pool,
    snapshots_to_csv,
    snapshots_to_json,
)
from .scenario import CONTROLLER_NUMBERS, Scenario, Strategy, from_dict, parse_controller, read_document
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
    parser = _Parser(prog="handoffsim", formatter_class=argparse.RawDescriptionHelpFormatter,
                     description="Simulate vertical handoffs between overlay networks.\n\n"
                     "subcommands: validate, enumerate-taxonomy, run, sweep\n"
                     "exit codes:  0 success, 1 usage error, 2 invalid scenario, 3 runtime failure")
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
    p_sweep.add_argument(
        "--workers", type=int, default=1,
        help="processes, this one included; each runs every grid point over its share "
        "of the terminals (and of the points, when there are fewer terminals than workers)",
    )
    p_sweep.add_argument("--out", help="write the sweep CSV here instead of stdout")
    return parser


def _load(path: str, seed: Optional[int] = None) -> tuple[dict, Scenario] | int:
    """The document in the file at ``path`` and the scenario parsed once
    from it, with the parsed seed replaced when ``seed`` is given; or, when
    it cannot be loaded, the exit code, after saying why on stderr."""
    try:
        doc = read_document(path)
        scenario = from_dict(doc)
    except ScenarioError as exc:
        for problem in exc.problems:
            print(f"{path}: {problem}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print(f"{path}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    return doc, (scenario if seed is None else scenario._replace(seed=seed))


def _cmd_validate(args) -> int:
    loaded = _load(args.scenario)
    if isinstance(loaded, int):
        return loaded
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


def _write_failed(exc: OSError, path) -> int:
    """Report an output file or directory that could not be written."""
    print(f"{exc.filename or path}: {exc.strerror or exc}", file=sys.stderr)
    return EXIT_RUNTIME


def _emit(text: str, out: Optional[str]) -> int:
    """Write ``text`` to the file ``out``, or to stdout when there is none."""
    if not out:
        sys.stdout.write(text)
        return EXIT_OK
    try:
        Path(out).write_text(text)
    except OSError as exc:
        return _write_failed(exc, out)
    print(f"wrote {out}", file=sys.stderr)
    return EXIT_OK


def _cmd_taxonomy(args) -> int:
    return _emit(_taxonomy_csv(), args.out)


def _metric_rows(scenario, pooled):
    """One row per terminal and a pooled "all" row, from one fold's snapshot."""
    rows = [(spec.id, pooled.by_terminal[spec.id]) for spec in scenario.terminals]
    rows.append(("all", pooled))
    return rows


def _cmd_run(args) -> int:
    from . import engine  # imported here: validate and enumerate-taxonomy run no engine code

    loaded = _load(args.scenario, args.seed)
    if isinstance(loaded, int):
        return loaded
    scenario = loaded[1]
    del loaded  # the run holds no document

    try:
        if args.no_trace:
            # The records go straight to the fold; no trace is kept.
            trace = None
            pooled = engine.run(scenario, sink=MetricFolder(scenario.duration_ms)).snapshot()
        else:
            trace = engine.run(scenario)
            pooled = compute_metrics(trace, scenario.duration_ms)
        rows = _metric_rows(scenario, pooled)
    except HandoffSimError as exc:
        where = "" if exc.at is None else " at {} ms, terminal {}".format(*exc.at)
        print(f"run failed{where}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME

    out_dir = Path(args.out)
    stem = Path(args.scenario).stem
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        if trace is not None:
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
    except OSError as exc:
        return _write_failed(exc, out_dir)
    print(f"wrote {metrics_path}", file=sys.stderr)
    sys.stdout.write(text)
    return EXIT_OK


# Grid axis -> the controller field it sets.
_GRID_AXES = {
    "delta": "hysteresis_delta",
    "sp": "dwell_sp",
    "th_sup": "th_sup",
    "th_inf": "th_inf",
    "strategy": "strategy",
}
_STRATEGIES = tuple(strategy.value for strategy in Strategy)

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
        if any(name == given for given, _ in axes):
            raise ValueError(f"grid axis {name!r}: given more than once")
        parse = CONTROLLER_NUMBERS.get(_GRID_AXES[name], str)
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
                if v not in _STRATEGIES:
                    raise ValueError(
                        f"grid axis 'strategy': expected {' or '.join(_STRATEGIES)}, got {v!r}"
                    )
        if not values:
            raise ValueError(f"grid axis {name!r}: no values")
        axes.append((name, values))
    if not axes:
        raise ValueError("grid: no axes given")
    return axes


def _sweep_point(outcome) -> tuple:
    """One grid point's outcome of its batch's engine pass, as ``(facts,
    None)``, each terminal's fold results in sorted terminal order; or, when
    the point failed, ``(None, (t, terminal, message))`` for the event it
    failed at."""
    if isinstance(outcome, HandoffSimError):
        return None, (*outcome.at, str(outcome))
    return outcome.facts(), None


def _sweep_batch(base: Scenario, terminals: list[str], controllers: list) -> list[tuple]:
    """Run grid points, given as controller configurations, in grid order
    over the base scenario's ``terminals``, in one engine pass: grid axes set
    only controller fields, so each terminal-tick's context is computed once
    and every point steps its own controller over it, folding its records
    as they are made, with no trace."""
    from . import engine

    ids = set(terminals)
    group = base._replace(terminals=tuple(term for term in base.terminals if term.id in ids))
    points = [(controller, MetricFolder(base.duration_ms)) for controller in controllers]
    return [_sweep_point(outcome) for outcome in engine.run(group, points=points)]


def _batches(items: list, workers: int) -> list[list]:
    """Split the items into min(workers, items) contiguous batches whose
    sizes differ by at most one."""
    count = max(1, min(workers, len(items)))
    size, extra = divmod(len(items), count)
    batches, start = [], 0
    for i in range(count):
        end = start + size + (i < extra)
        batches.append(items[start:end])
        start = end
    return batches


def _point_controllers(doc: dict, points: list[dict]) -> list:
    """Each grid point's controller configuration, or its validation message.

    Only the controller part of the base scenario's document is parsed
    again: the rest is already valid, and no axis reaches it."""
    out = []
    for point in points:
        controller = dict(doc.get("controller", {}))
        for axis, value in point.items():
            controller[_GRID_AXES[axis]] = value
        try:
            out.append(parse_controller({**doc, "controller": controller}))
        except ScenarioError as exc:
            out.append("; ".join(exc.problems))
    return out


class _WorkersFailed(Exception):
    """A sweep's worker process could not be started, or died."""


class _Child:
    """A forked process that computes ``fn(*args)`` and sends the result back,
    pickled, over its own pipe.  It leaves with ``os._exit``, so it never
    returns into the caller's code and runs no exit hook or stdio flush; on
    an exception it writes one line to stderr and leaves with status 1.
    The CLI starts no thread, so no lock is held across the fork."""

    def __init__(self, fn, *args):
        import pickle  # imported here: run, validate and a one-task sweep never fork

        read_fd, write_fd = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(read_fd)
            os.close(write_fd)
            raise
        if pid == 0:
            status = 1
            try:
                os.close(read_fd)
                with open(write_fd, "wb") as out:
                    pickle.dump(fn(*args), out, pickle.HIGHEST_PROTOCOL)
                status = 0
            except BaseException as exc:  # whatever it is, the child must leave here
                os.write(2, f"sweep worker {os.getpid()}: {exc!r}\n".encode())
            finally:
                os._exit(status)
        os.close(write_fd)
        self.pid, self.fd = pid, read_fd

    def result(self):
        """The child's result, once it has sent all of it and exited;
        _WorkersFailed when it exited otherwise than with status 0 or sent
        what cannot be unpickled."""
        import pickle

        with open(self.fd, "rb") as pipe:
            self.fd = None
            data = pipe.read()
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        code = os.waitstatus_to_exitcode(status)
        if code > 0:
            raise _WorkersFailed(f"a worker process exited with status {code}")
        if code < 0:
            raise _WorkersFailed(f"a worker process was killed by signal {-code}")
        try:
            return pickle.loads(data)
        except Exception as exc:
            raise _WorkersFailed(
                f"a worker process sent a result that cannot be read: {exc!r}"
            ) from None

    def reap(self) -> None:
        """End the child, unless its result was taken, and wait for it."""
        if self.fd is not None:
            os.close(self.fd)
            self.fd = None
        if self.pid is not None:
            import signal

            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None


def _run_tasks(scenario: Scenario, tasks: list[tuple]) -> list[list[tuple]]:
    """``_sweep_batch`` over each (terminals, controllers) task, in task order.

    Every task but the last runs in a forked child, which inherits the
    parsed scenario and the paused collector; the last runs here meanwhile,
    and only then are the children's results read.  A child blocked on a
    full pipe has finished computing, so it waits for nothing of ours.  Where
    there is no ``os.fork``, every task runs here, in order.  Each child
    started is reaped, and ended first if its result was not taken, however
    this returns."""
    if len(tasks) == 1 or not hasattr(os, "fork"):
        return [_sweep_batch(scenario, *task) for task in tasks]
    children = []
    try:
        try:
            for task in tasks[:-1]:
                children.append(_Child(_sweep_batch, scenario, *task))
        except OSError as exc:
            raise _WorkersFailed(f"cannot start a worker process: {exc.strerror or exc}") from None
        own = _sweep_batch(scenario, *tasks[-1])
        return [child.result() for child in children] + [own]
    finally:
        for child in children:
            child.reap()


def _run_points(scenario: Scenario, controllers: list, workers: int) -> list:
    """Each point's pooled snapshot, or its first failure's message.

    The sorted terminals are split into ``min(workers, terminals)``
    contiguous groups, and the points into ``workers // groups`` batches
    (one, unless there are fewer terminals than workers).  Each (group,
    batch) pair is a task, and ``_run_tasks`` runs them in ``workers``
    processes at most, this one included.  A point's groups pool in
    terminal order to the run's snapshot; a point that fails takes the
    first failure in event order, as a run of all its terminals would stop
    there.  A worker that cannot be started, or that dies, raises
    _WorkersFailed."""
    terminals = sorted(term.id for term in scenario.terminals)
    groups = _batches(terminals, workers)
    batches = _batches(controllers, workers // len(groups))
    done = _run_tasks(scenario, [(group, batch) for group in groups for batch in batches])
    # Each group's batches, joined, hold its result for every point.
    step = len(batches)
    by_group = [[r for out in done[i:i + step] for r in out] for i in range(0, len(done), step)]
    outcomes = []
    for results in zip(*by_group):  # one point's, in group order
        failures = [failure for _, failure in results if failure is not None]
        if failures:
            outcomes.append(min(failures)[2])
        else:
            facts = [f for group_facts, _ in results for f in group_facts]
            outcomes.append(pool(facts, scenario.duration_ms, scenario.metrics_constants))
    return outcomes


def _cmd_sweep(args) -> int:
    if args.workers < 1:
        print(f"error: --workers: expected at least 1, got {args.workers}", file=sys.stderr)
        return EXIT_USAGE
    try:
        axes = parse_grid(args.grid)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    loaded = _load(args.scenario)
    if isinstance(loaded, int):
        return loaded
    doc, scenario = loaded

    names = [name for name, _ in axes]
    points = [dict(zip(names, combo)) for combo in product(*(vs for _, vs in axes))]
    results = _point_controllers(doc, points)
    valid = [r for r in results if not isinstance(r, str)]
    if valid:
        try:
            ran = iter(_run_points(scenario, valid, args.workers))
        except _WorkersFailed as exc:
            print(f"sweep failed: {exc}", file=sys.stderr)
            return EXIT_RUNTIME
        results = [r if isinstance(r, str) else next(ran) for r in results]

    header = names + SWEEP_METRIC_COLUMNS + ["error"]
    lines = [",".join(header)]
    failures = 0
    for point, result in zip(points, results):
        cells = [str(point[name]) for name in names]
        if isinstance(result, str):
            failures += 1
            cells += ["" for _ in SWEEP_METRIC_COLUMNS]
            cells.append(result.replace(",", ";"))
        else:
            cells += _sweep_cells(result) + [""]
        lines.append(",".join(cells))
    status = _emit("\n".join(lines) + "\n", args.out)
    if failures and status == EXIT_OK:
        print(f"{failures} of {len(points)} grid points failed", file=sys.stderr)
    return status


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command and return its exit code.  The command runs with the
    cycle collector paused, which is restored as it was found however the
    command ends: it would only scan a run's records, which form no cycle."""
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
    enabled = gc.isenabled()
    gc.disable()
    try:
        return handlers[args.command](args)
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
