#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of handoffsim's `run` and `sweep` commands.

    python3 perfbench/run.py --workload metro|churn|sweep --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: the program is imported from that
checkout's ``src/`` and from nowhere else.  The workload's scenario is
generated from the seed (``workloads.py``) into ``.perfbench_work/``, which
also receives every output file; the program sees only that file.

Load is a closed loop with one client.  One repetition runs ``handoffsim
run`` in process, timing ``engine.run`` and the metric fold inside it, and
then ``handoffsim sweep --workers 2``.  After a warm-up, repetitions go on
while the next one is expected to end within the requested seconds.  Every
operation is timed between two checks of the host's speed
(``calibrate.py``).  ``--trace 0`` prints the end-to-end metrics as medians
over the repetitions; ``--trace 1`` makes one traced pass and prints the
per-layer metrics (``tracer.py``).

Outputs are checked as they are made, and an operation whose check fails
counts as failed.  The line before the last carries the simulated
statistics, the samples, the machine and any problems; the last line is the
result object.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from calibrate import Timing, calibrated_s, timed
from tracer import Tracer, p99_us
from workloads import WORKLOADS

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
HERE = Path(__file__).resolve().parent
WORKERS = 2
MIN_REPS = 5
SETUP_REPS = 9
CHILD_TIMEOUT_S = 150
NAN = float("nan")

# A fresh process imports handoffsim and loads the scenario, and prints the
# host seconds that took with the slowdowns just before and after.
SETUP_CHILD = """\
import importlib, sys
sys.path.insert(0, sys.argv[2])
from calibrate import timed
def setup():
    importlib.import_module("handoffsim")
    importlib.import_module("handoffsim.scenario").load_scenario(sys.argv[1])
t = timed(setup)[1]
print(t.seconds, t.before, t.after)
"""

# A fresh process runs the workload once through the CLI and prints its exit
# code and its peak resident set in KiB.
RSS_CHILD = """\
import contextlib, os, resource, sys
from handoffsim import cli
with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \\
        contextlib.redirect_stderr(sink):
    code = cli.main(sys.argv[1:])
print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def _import_program() -> None:
    """Import handoffsim from this checkout's src/, or stop."""
    if not (SRC / "handoffsim" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no src/handoffsim under {ROOT}; run from a checkout root")
    sys.path.insert(0, str(SRC))
    import handoffsim

    if Path(handoffsim.__file__).resolve().parent != (SRC / "handoffsim").resolve():
        raise SystemExit(f"perfbench: imported handoffsim from {handoffsim.__file__}, not {SRC}")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Tally:
    """Operations attempted and failed, with the first few problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, attempted: int, failed: int = 0, problem: str = "") -> bool:
        self.attempted += attempted
        self.failed += failed
        if failed and len(self.problems) < 20:
            self.problems.append(problem)
        return failed == 0

    def check(self, ok: bool, count: int, problem: str) -> bool:
        """An output check on `count` operations already attempted."""
        return self.add(0, 0 if ok else count, problem)


class Bench:
    """One generated workload and the checked operations on it.

    Each operation returns None when it failed, after counting the failure.
    """

    def __init__(self, workload: str, seed: int, scale: float):
        from handoffsim.scenario import load_scenario

        self.doc, self.grid = WORKLOADS[workload](seed, scale)
        self.terminals = [t["id"] for t in self.doc["terminals"]]
        self.ticks = len(self.terminals) * (self.doc["duration_ms"] // self.doc["tick_ms"])
        self.points = math.prod(len(axis.split(",")) for axis in self.grid.split(";"))
        self.dir = WORK / workload
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.scenario_path = self.dir / f"{workload}.json"
        self.scenario_path.write_text(json.dumps(self.doc, indent=1))
        self.scenario = load_scenario(self.scenario_path)  # must pass before any timing
        self.trace_path = self.dir / f"{workload}.trace.ndjson"
        self.csv_path = self.dir / f"{workload}.metrics.csv"
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.tally = Tally()
        self.digests: dict[str, str] = {}

    @staticmethod
    def _cli(argv: list[str]) -> tuple[int, str]:
        from handoffsim import cli

        err = io.StringIO()
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, err.getvalue().strip()

    def _attempt(self, what: str, op, count: int = 1):
        """Time `op()`: (result, Timing), or None with `count` failures."""
        try:
            return timed(op)
        except Exception as exc:  # a failed operation is counted, not fatal
            self.tally.add(count, count, f"{what} raised {exc!r}")
            return None

    def engine(self):
        """`engine.run` on the loaded scenario: (trace, Timing)."""
        from handoffsim import engine

        ran = self._attempt("engine.run", lambda: engine.run(self.scenario))
        if ran is not None:
            self.tally.add(1)
        return ran

    def fold(self, trace):
        """The CLI's metric fold on a trace: (CSV text, Timing)."""
        from handoffsim.metrics import compute_metrics, snapshots_to_csv

        duration = self.doc["duration_ms"]

        def op():
            rows = [(tid, compute_metrics(trace, duration, tid)) for tid in self.terminals]
            rows.append(("all", compute_metrics(trace, duration)))
            return snapshots_to_csv(rows)

        folded = self._attempt("metrics fold", op)
        if folded is not None:
            self.tally.add(1)
        return folded

    def _command(self, argv: list[str], count: int) -> Timing | None:
        """One in-process CLI command that must exit 0."""
        done = self._attempt(argv[0], lambda: self._cli(argv), count)
        if done is None:
            return None
        (code, err), timing = done
        if code != 0:
            self.tally.add(count, count, f"{argv[0]} exited {code}: {err}")
            return None
        return timing

    def run(self) -> Timing | None:
        """One `handoffsim run`, whose outputs must match the first run's."""
        timing = self._command(["run", str(self.scenario_path), "--out", str(self.dir)], 1)
        if timing is None:
            return None
        self.tally.add(1)
        ok = self.same_digests(_sha256(self.trace_path), _sha256(self.csv_path), "run")
        return timing if ok else None

    def same_digests(self, trace_sha: str, csv_sha: str, what: str) -> bool:
        """Every run of the workload writes the same trace and metrics bytes."""
        seen = {"trace_sha256": trace_sha, "metrics_sha256": csv_sha}
        self.digests = self.digests or seen
        return self.tally.check(seen == self.digests, 1,
                                f"{what}: outputs differ from the first run")

    def sweep(self, workers: int, out: Path) -> Timing | None:
        """One `handoffsim sweep`, with a full row and no error per point."""
        argv = ["sweep", str(self.scenario_path), "--grid", self.grid,
                "--workers", str(workers), "--out", str(out)]
        timing = self._command(argv, self.points)
        if timing is None:
            return None
        rows = list(csv.DictReader(out.read_text().splitlines()))
        if len(rows) != self.points:
            self.tally.add(self.points, self.points, f"sweep gave {len(rows)} rows")
            return None
        errors = sum(1 for row in rows if row["error"])
        ok = self.tally.add(self.points, errors, f"sweep filled {errors} error cells")
        return timing if ok else None

    def same_sweeps(self, a: Path, b: Path, what: str) -> None:
        self.tally.check(a.read_bytes() == b.read_bytes(), self.points,
                         f"{what}: sweep CSVs differ")

    def check_read_trace(self) -> None:
        """The written trace, read back, gives the metrics the CLI wrote."""
        from handoffsim.trace import ANL, read_trace

        trace = read_trace(self.trace_path)
        folded = self.fold(trace)
        if folded is not None:
            self.tally.check(folded[0] == self.csv_path.read_text(), 1,
                             "metrics of the re-read trace differ from the CLI's")
            anl = sum(1 for r in trace.records if r.kind == ANL)
            self.tally.check(anl == self.ticks, 1, f"{anl} anl records for {self.ticks} ticks")

    def setup(self) -> list[Timing]:
        """Fresh processes import handoffsim and load the scenario."""
        times = []
        for rep in range(SETUP_REPS + 1):
            done = subprocess.run(
                [sys.executable, "-c", SETUP_CHILD, str(self.scenario_path), str(HERE)],
                env=self.env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
            )
            ok = self.tally.add(1, int(done.returncode != 0), done.stderr[-300:])
            if ok and rep:  # rep 0 warms the bytecode and file caches
                times.append(Timing(*map(float, done.stdout.split())))
        return times

    def peak_rss_mb(self) -> float:
        """Peak resident set of a fresh process that runs the workload once."""
        out = self.dir / "child"
        done = subprocess.run(
            [sys.executable, "-c", RSS_CHILD, "run", str(self.scenario_path), "--out", str(out)],
            env=self.env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        fields = done.stdout.split()
        if done.returncode != 0 or fields[:1] != ["0"]:
            self.tally.add(1, 1, f"child run failed: {done.stderr[-300:]}")
            return NAN
        self.tally.add(1)
        stem = self.scenario_path.stem
        self.same_digests(_sha256(out / f"{stem}.trace.ndjson"),
                          _sha256(out / f"{stem}.metrics.csv"), "child run")
        return int(fields[1]) / 1024.0  # ru_maxrss is in KiB on Linux

    def stats(self) -> dict:
        """Exact counts of what the workload simulated; reported, never gated."""
        pooled = list(csv.DictReader(self.csv_path.read_text().splitlines()))[-1]
        with open(self.trace_path, "rb") as fh:
            records = sum(1 for _ in fh)
        return {
            "terminal_ticks": self.ticks,
            "records": records,
            "trace_bytes": self.trace_path.stat().st_size,
            "handoffs": int(pooled["completed"]),
            "accepted": int(pooled["accepted"]),
            "rollbacks": int(pooled["rollbacks"]),
            **self.digests,
        }


def _samples(timings: dict[str, list[Timing]]) -> dict:
    """Every timing as [host seconds, slowdown before, slowdown after]."""
    return {k: [[round(t.seconds, 6), round(t.before, 3), round(t.after, 3)] for t in v]
            for k, v in timings.items()}


def measure_end_to_end(bench: Bench, seconds: float) -> tuple[dict, dict]:
    rss = bench.peak_rss_mb()
    sweep_csv = bench.dir / "sweep.csv"
    timings = {"engine_s": [], "metrics_s": [], "run_s": [], "sweep_s": []}

    def rep() -> None:
        with Tracer(("engine.run", "metrics.compute_metrics", "metrics.to_csv")) as probes:
            run = bench.run()
        sweep = bench.sweep(WORKERS, sweep_csv)
        if run is None or sweep is None:
            return
        t = probes.layer_times()
        fold_s = t["metrics.compute_metrics"]["total_s"] + t["metrics.to_csv"]["total_s"]
        # The engine and the fold are timed inside the run, so the run's speed checks apply.
        timings["engine_s"].append(Timing(t["engine.run"]["total_s"], run.before, run.after))
        timings["metrics_s"].append(Timing(fold_s, run.before, run.after))
        timings["run_s"].append(run)
        timings["sweep_s"].append(sweep)

    rep()  # warm-up: checked, not timed
    for values in timings.values():
        values.clear()
    first_sweep = sweep_csv.read_bytes()
    bench.check_read_trace()
    timings["setup_s"] = bench.setup()

    start = perf_counter()
    last = 0.0
    reps = 0
    while reps < MIN_REPS or perf_counter() - start + last <= seconds:
        rep_start = perf_counter()
        rep()
        last = perf_counter() - rep_start
        reps += 1
        bench.tally.check(sweep_csv.read_bytes() == first_sweep, bench.points,
                          "sweep CSV differs between repetitions")

    metrics = {
        "run_s": (calibrated_s(timings["run_s"]), "s"),
        "sim_ticks_per_s": (bench.ticks / calibrated_s(timings["engine_s"]), "1/s"),
        "metrics_s": (calibrated_s(timings["metrics_s"]), "s"),
        "sweep_s": (calibrated_s(timings["sweep_s"]), "s"),
        "peak_rss_mb": (rss, "MB"),
        "setup_s": (calibrated_s(timings["setup_s"]), "s"),
    }
    return metrics, _samples(timings)


def measure_layers(bench: Bench) -> tuple[dict, dict]:
    bench.run()  # warm-up; its digests are the ones the traced run must match
    untraced = [bench.engine() for _ in range(3)]

    parallel_csv = bench.dir / "sweep.parallel.csv"
    bench.sweep(WORKERS, parallel_csv)  # warm-up: the first pool in a process starts slower
    sweep = bench.sweep(WORKERS, parallel_csv)
    serial_csv = bench.dir / "sweep.serial.csv"
    with Tracer(("sweep.point",)) as points:
        bench.sweep(1, serial_csv)
    bench.same_sweeps(parallel_csv, serial_csv, "serial sweep")

    traced_csv = bench.dir / "sweep.traced.csv"
    with Tracer() as traced:
        traced_run = bench.run()
        traced_sweep = bench.sweep(1, traced_csv)
    bench.same_sweeps(parallel_csv, traced_csv, "traced serial sweep")
    bench.check_read_trace()
    traced.write(bench.dir / "spans.tsv")

    with Tracer():
        overhead = [bench.engine() for _ in range(3)]

    def engine_s(results) -> float:
        return calibrated_s([r[1] for r in results if r is not None])

    def ratio(a, b):
        return a / b if b else NAN

    t = traced.layer_times()
    c = traced.counts
    point_s = points.layer_times()["sweep.point"]["durations"]
    trace_bytes = bench.trace_path.stat().st_size
    records = bench.stats()["records"]

    metrics = {}
    for name in ("topology.coverage", "synthesis.advance_to", "synthesis.sample_context",
                 "desirability.desirability", "desirability.rank", "controller.step",
                 "trace.append", "metrics.compute_metrics", "scenario.from_dict"):
        metrics[f"{name}.calls"] = (t[name]["calls"], "count")
        metrics[f"{name}.self_s"] = (t[name]["self_s"], "s")
    metrics |= {
        "topology.coverage.p99_us": (p99_us(t["topology.coverage"]["durations"]), "us"),
        "topology.stations_scanned": (c["stations_scanned"], "count"),
        "topology.hit_ratio": (ratio(c["stations_covered"], c["stations_scanned"]), "ratio"),
        "synthesis.sample_distinct_ratio": (
            ratio(c["distinct_samples"], t["synthesis.sample_context"]["calls"]), "ratio"),
        "desirability.candidates_per_rank": (
            ratio(c["candidates"], t["desirability.rank"]["calls"]), "count"),
        "controller.step.p99_us": (p99_us(t["controller.step"]["durations"]), "us"),
        "controller.rollback_ratio": (ratio(c["rollbacks"], c["prep_entries"]), "ratio"),
        "controller.accept_ratio": (ratio(c["accepted"], c["completed"]), "ratio"),
        "engine.run_s": (t["engine.run"]["total_s"], "s"),
        "engine.self_s": (t["engine.run"]["self_s"], "s"),
        "trace.write_s": (t["trace.write"]["total_s"], "s"),
        "trace.bytes": (trace_bytes, "B"),
        "trace.bytes_per_record": (trace_bytes / records, "B"),
        "metrics.records_walked": (c["records_walked"], "count"),
        "metrics.to_csv_s": (t["metrics.to_csv"]["total_s"], "s"),
        "sweep.point_s": (statistics.mean(point_s) if point_s else NAN, "s"),
        "sweep.parallel_efficiency": (
            ratio(sum(point_s), WORKERS * sweep.seconds) if sweep else NAN, "ratio"),
        "trace.overhead_ratio": (ratio(engine_s(overhead), engine_s(untraced)), "ratio"),
    }
    timings = {
        "engine_untraced_s": [r[1] for r in untraced if r],
        "engine_traced_s": [r[1] for r in overhead if r],
        "sweep_s": [sweep] if sweep else [],
        "traced_pass_s": [x for x in (traced_run, traced_sweep) if x],
    }
    return metrics, _samples(timings) | {"sweep.point_s": [round(x, 6) for x in point_s]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink the workload (the smoke test runs a tiny one)")
    args = parser.parse_args(argv)

    _import_program()
    bench = Bench(args.workload, args.seed, args.scale)
    if args.trace:
        metrics, samples = measure_layers(bench)
    else:
        metrics, samples = measure_end_to_end(bench, args.seconds)

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "loop": "closed, 1 client; sweep on 2 worker processes",
        "machine": {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
                    "os": f"{platform.system()} {platform.release()} {platform.machine()}"},
        "stats": bench.stats(),
        "samples": samples,
        "problems": bench.tally.problems,
    }
    print(json.dumps(info, sort_keys=True))
    result = {
        "correct": bench.tally.failed == 0,
        "attempted": bench.tally.attempted,
        "failed": bench.tally.failed,
        "metrics": {  # a metric that failed to measure reads null, never NaN
            name: {"value": None if value != value else value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
