"""Benchmark of the mullineux package, driven from outside it.

    python3 bench/run.py --workload identity --seed 1 --seconds 25 --trace 0

Run from anywhere; the package is imported from the `src/` next to this
directory.  Each repetition runs in a fresh single-threaded interpreter with
its own empty MULLINEUX_CACHE_DIR under `.bench_work/`, so no run sees a
cache or a heap left by another.  The seeded inputs are generated here,
before any timing, and handed to the worker as a file.

With --trace 0 the run cycles the repetitions through the plan's parts
while the next one fits in --seconds (identity runs whole cycles, one kind
per part).  It runs every part and times at least MIN_TAIL_SAMPLES
operations (enough for a 99th percentile), then reports the end-to-end
metrics; cold passes and median latencies take each item's fastest run.
The first repetition of each part checks its outputs in full; every later
one must reproduce that repetition's output digests.  With --trace 1 it replays a smaller fixed
plan twice, untraced and then under the span tracer, and reports the
per-layer metrics and the tracing overhead; the spans are written under
`.bench_work/trace/`.

Every output is checked after the timed region.  The last stdout line is
one JSON object {"correct", "attempted", "failed", "metrics"}; the exit
status is 0 only when every operation passed its check.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = BENCH.parent
MIN_TAIL_SAMPLES = 1000  # p99 needs at least 10 samples beyond it
HARD_STOP_S = 120
REP_TIMEOUT_S = 150

# name, unit, what it measures
END_TO_END = (
    ("setup_s", "s", "spawn of a fresh interpreter until `import mullineux` is done"),
    ("peak_rss_mb", "MB", "peak resident set of a repetition of the largest part"),
    ("cold_pass_s", "s", "one cold pass in fresh processes with empty caches"),
    ("op_p50_ms", "ms", "median latency of one closed-loop operation, fastest run of each"),
    ("op_p99_ms", "ms", "99th percentile latency of one closed-loop operation"),
    ("ops_per_s", "1/s", "closed-loop operations per busy second, fastest run of each"),
)

# What the generic metrics are on each workload.
ALIASES = {
    "identity": {"cold_pass_s": "verify_cold_s", "op_p50_ms": "verify_warm_ms",
                 "op_p99_ms": "verify_warm_p99_ms", "ops_per_s": "warm_verifies_per_s"},
    "crystal-fold": {"cold_pass_s": "export_cold_s", "op_p50_ms": "fold_check_p50_ms",
                     "op_p99_ms": "fold_check_p99_ms", "ops_per_s": "fold_checks_per_s"},
    "point-queries": {"cold_pass_s": "query_pass_s", "op_p50_ms": "query_p50_ms",
                      "op_p99_ms": "query_p99_ms", "ops_per_s": "queries_per_s"},
}


class RepError(RuntimeError):
    """A repetition's process failed or printed no result."""


class Spawner:
    """Runs bench/worker.py in a fresh interpreter for each call.

    Each interpreter is pinned to one CPU, and successive runs of a part
    take turns over the CPUs this process may use.  Unpinned, every run
    lands on the same CPU, and other load on the host can slow one CPU for
    seconds while the other runs at full speed; taking turns gives every
    part samples from each CPU.
    """

    def __init__(self, plan: dict, work: Path):
        self.work = work
        self.plan_path = work / f"plan-{plan['workload']}.json"
        self.plan_path.write_text(json.dumps(plan))
        self.cpus = sorted(os.sched_getaffinity(0))
        self.runs: dict[int, int] = {}

    def _next_cpu(self, part: int) -> int:
        turn = self.runs.get(part, 0)
        self.runs[part] = turn + 1
        return self.cpus[(part + turn) % len(self.cpus)]

    def __call__(self, with_plan: bool, trace_dir: Path | None = None,
                 part: int = 0, verify: bool = True) -> dict:
        cpu = self._next_cpu(part)
        cache = tempfile.mkdtemp(prefix="cache-", dir=self.work)
        env = {**os.environ, "MULLINEUX_CACHE_DIR": cache, "PYTHONHASHSEED": "0"}
        extra = ["--plan", str(self.plan_path)] if with_plan else []
        extra += ["--part", str(part)]
        extra += [] if verify else ["--skip-checks"]
        if trace_dir is not None:
            extra += ["--trace-dir", str(trace_dir)]
        try:
            spawned_at = time.monotonic()
            proc = subprocess.run(
                [sys.executable, str(BENCH / "worker.py"), "--src", str(ROOT / "src"),
                 "--spawned-at", repr(spawned_at), *extra],
                cwd=self.work, env=env, capture_output=True, text=True,
                timeout=REP_TIMEOUT_S, preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
        except subprocess.TimeoutExpired as exc:
            raise RepError(f"repetition exceeded {REP_TIMEOUT_S} s") from exc
        finally:
            shutil.rmtree(cache, ignore_errors=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RepError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        return json.loads(lines[-1])

    def close(self) -> None:
        self.plan_path.unlink(missing_ok=True)


def plan_ops(plan: dict, part: int) -> int:
    """Operations one repetition of a part of the plan attempts."""
    if plan["workload"] == "identity":
        return len(plan["kinds"][part::plan["parts"]]) * (1 + plan["warm_repeats"])
    if plan["workload"] == "crystal-fold":
        return (2 * len(plan["exports"]) * (part == 0)
                + len(plan["fold_checks"][part::plan["parts"]]))
    return len(plan["requests"][part::plan["parts"]])


def fastest_ops(reps: list[dict]) -> list[float]:
    """The fastest time in ms of each distinct operation (one input of the
    plan) over all its runs.  Other load on the host only ever slows an
    operation, so its fastest run is the steadiest measure."""
    fastest: dict[int, float] = {}
    for rep in reps:
        for op, ms in zip(rep["op_ids"], rep["op_ms"]):
            fastest[op] = min(fastest.get(op, ms), ms)
    return list(fastest.values())


def p99(values: list[float]) -> float:
    """Nearest-rank 99th percentile."""
    ordered = sorted(values)
    return ordered[math.ceil(0.99 * len(ordered)) - 1]


class Tally:
    """Attempted and failed operations over all repetitions, first errors."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def add(self, rep: dict, checked: dict | None = None) -> None:
        """Count a repetition; one run with --skip-checks must reproduce the
        output digests of the checked repetition."""
        self.attempted += rep["attempted"]
        self.failed += rep["failed"]
        errors = rep["errors"]
        if checked is not None:
            differ = sum(a != b for a, b in zip(checked["digests"], rep["digests"]))
            self.failed += differ
            if differ:
                errors = errors + [f"{differ} outputs differ from the checked repetition"]
        self.errors = (self.errors + errors)[:5]

    def lost(self, plan: dict, error: Exception, part: int = 0) -> None:
        ops = plan_ops(plan, part)
        self.attempted += ops
        self.failed += ops
        self.errors.append(str(error))


def timed_run(plan: dict, seconds: float, runner, min_tail: int):
    """End-to-end metrics with their sample counts."""
    tally = Tally()
    runner(False)  # compiles the package's bytecode; not a sample
    parts = plan["parts"]
    reps = []
    samples = 0
    # identity's parts are different kinds, so its runs are whole cycles
    # through them; the other workloads' parts are alike samples.
    step = parts if plan["workload"] == "identity" else 1
    start = mark = time.monotonic()
    while True:
        part = len(reps) % parts
        try:
            rep = runner(True, part=part, verify=len(reps) < parts)
        except RepError as exc:
            tally.lost(plan, exc, part)
            break
        tally.add(rep, reps[part] if len(reps) >= parts else None)
        reps.append(rep)
        samples += len(rep["op_ms"])
        now = time.monotonic()
        if now - start >= HARD_STOP_S:
            break
        if len(reps) % step:
            continue
        # Once every part ran and the tail percentile has its samples, start
        # no repetition (or cycle, for identity) that would end after the
        # deadline.
        last, mark = now - mark, now
        if len(reps) >= parts and samples >= min_tail and now - start + last > seconds:
            break
    if not reps:
        return {}, {}, tally
    setups = [r["setup_s"] for r in reps]
    op_ms = [ms for r in reps for ms in r["op_ms"]]
    op_best = fastest_ops(reps)
    cold: dict[str, list[float]] = {}
    rss: dict[int, list[float]] = {}
    for index, r in enumerate(reps):
        for item, elapsed in r["cold"].items():
            cold.setdefault(item, []).append(elapsed)
        rss.setdefault(index % parts, []).append(r["peak_rss_mb"])
    metrics = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(statistics.median(values) for values in rss.values()),
        "cold_pass_s": sum(min(values) for values in cold.values()),
        "op_p50_ms": statistics.median(op_best),
        "ops_per_s": len(op_best) * 1e3 / sum(op_best),
    }
    samples = {"setup_s": len(setups), "peak_rss_mb": len(reps),
               "cold_pass_s": min(len(values) for values in cold.values()),
               "op_p50_ms": len(op_best), "ops_per_s": len(op_best)}
    if len(op_ms) >= MIN_TAIL_SAMPLES:
        metrics["op_p99_ms"] = p99(op_ms)
        samples["op_p99_ms"] = len(op_ms)
    return metrics, samples, tally


def traced_run(plan: dict, runner, trace_dir: Path):
    """Per-layer metrics from one traced repetition, and the tracing
    overhead against an untraced repetition of the same plan."""
    tally = Tally()
    try:
        untraced = runner(True)
        tally.add(untraced)
        traced = runner(True, trace_dir)
        tally.add(traced)
    except RepError as exc:
        tally.lost(plan, exc)
        return {}, {}, tally
    metrics = dict(traced["layers"])
    metrics["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
    return metrics, {name: 1 for name in metrics}, tally


def run(workload: str, seed: int, seconds: float, trace: bool,
        scale: str = "full", runner=None) -> dict:
    """Generate the inputs, measure, check, and return the result record
    (the printed JSON plus the sample counts, inputs and first errors)."""
    work = ROOT / ".bench_work"
    work.mkdir(exist_ok=True)
    plan = workloads.make_plan(workload, seed, "trace" if trace and scale == "full" else scale)
    spawner = None
    if runner is None:
        runner = spawner = Spawner(plan, work)
    try:
        if trace:
            metrics, samples, tally = traced_run(plan, runner, work / "trace" / workload)
            expected = [name for name, *_ in spans.LAYER_METRICS]
            units = {name: unit for name, unit, *_ in spans.LAYER_METRICS}
        else:
            min_tail = MIN_TAIL_SAMPLES if scale == "full" else 0
            metrics, samples, tally = timed_run(plan, seconds, runner, min_tail)
            expected = [name for name, *_ in END_TO_END]
            units = {name: unit for name, unit, _ in END_TO_END}
    finally:
        if spawner:
            spawner.close()
    missing = [name for name in expected if name not in metrics]
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in expected if name in metrics},
        "samples": samples,
        "missing": missing,
        "inputs": plan["properties"],
        "errors": tally.errors,
    }


def report(workload: str, result: dict) -> None:
    """Human-readable lines, then the JSON record as the last line."""
    print(f"# workload {workload}; inputs {json.dumps(result['inputs'], sort_keys=True)}")
    aliases = ALIASES[workload]
    for name, entry in result["metrics"].items():
        alias = f"  ({aliases[name]})" if name in aliases else ""
        print(f"{name:45s} {entry['value']:>14.6g} {entry['unit']:6s} "
              f"n={result['samples'][name]}{alias}")
    for name in result["missing"]:
        print(f"{name:45s} {'missing':>14s}")
    print(f"{'failure_ratio':45s} {result['failed'] / result['attempted']:>14.6g} "
          f"{'ratio':6s} n={result['attempted']}")
    for error in result["errors"]:
        print(f"# error: {error}")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))


def exit_code(result: dict) -> int:
    """0 only when every operation passed its check and no metric is missing."""
    return 0 if result["correct"] and not result["missing"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "mullineux" / "__init__.py").is_file():
        print(f"error: no package at {ROOT / 'src' / 'mullineux'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    report(args.workload, result)
    return exit_code(result)


if __name__ == "__main__":
    sys.exit(main())
