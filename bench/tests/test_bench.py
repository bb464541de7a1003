"""Tests of the benchmark itself: smoke runs, a planted wrong answer, span
nesting, repeatable counts, and agreement with BENCHMARK.json.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {name for name, *_ in run.END_TO_END}


def _repeatable(name: str, unit: str) -> bool:
    return unit != "s" and not name.endswith("share")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_is_correct_and_reports_every_metric(workload):
    result = run.run(workload, seed=3, seconds=0, trace=False, scale="tiny")
    assert result["correct"], result["errors"]
    assert result["failed"] == 0 and result["attempted"] > 0
    # Tiny plans may time too few operations for a 99th percentile.
    assert set(result["metrics"]) | {"op_p99_ms"} == END_TO_END
    assert all(entry["value"] > 0 for entry in result["metrics"].values())
    assert result["samples"]["setup_s"] == result["samples"]["peak_rss_mb"] > 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_and_spans_nest(workload):
    first = run.run(workload, seed=5, seconds=0, trace=True, scale="tiny")
    second = run.run(workload, seed=5, seconds=0, trace=True, scale="tiny")
    assert first["correct"] and second["correct"]
    assert not first["missing"]
    units = {name: unit for name, unit, *_ in spans.LAYER_METRICS}
    for name, unit in units.items():
        if _repeatable(name, unit):
            assert first["metrics"][name] == second["metrics"][name], name

    header, (names, parents, starts, ends) = spans.read_spans(
        ROOT / ".bench_work" / "trace" / workload)
    assert header["count"] == first["metrics"]["trace.spans"]["value"] > 0
    children = [0] * header["count"]
    for idx in range(header["count"]):
        assert starts[idx] <= ends[idx]
        parent = parents[idx]
        if parent >= 0:
            assert parent < idx
            assert starts[parent] <= starts[idx] and ends[idx] <= ends[parent]
            children[parent] += ends[idx] - starts[idx]
    for idx in range(header["count"]):
        assert 0 <= ends[idx] - starts[idx] - children[idx] <= ends[idx] - starts[idx]


def test_identity_layers_match_the_workload():
    result = run.run("identity", seed=1, seconds=0, trace=True, scale="tiny")
    layers = {name: entry["value"] for name, entry in result["metrics"].items()}
    assert layers["involution.mullineux_map.vertices"] > 0
    assert layers["typea.signature_report.calls"] >= layers["typea.add_cogood.calls"] > 0
    assert layers["folding.path_calls_per_check"] == 0
    fold = run.run("crystal-fold", seed=1, seconds=0, trace=True, scale="tiny")
    assert fold["metrics"]["involution.mullineux_map.s"]["value"] == 0
    assert fold["metrics"]["folding.path_calls_per_check"]["value"] == 2


def test_op_latency_is_each_operations_fastest_run():
    reps = [{"op_ids": [0, 2], "op_ms": [1.0, 9.0]}, {"op_ids": [1, 1], "op_ms": [5.0, 6.0]},
            {"op_ids": [0, 2], "op_ms": [3.0, 2.0]}, {"op_ids": [1, 1], "op_ms": [7.0, 4.0]}]
    assert sorted(run.fastest_ops(reps)) == [1.0, 2.0, 4.0]


class InProcess:
    """Runs repetitions in this process, so a monkeypatch reaches them."""

    def __init__(self, workload, seed, tmp_path, monkeypatch):
        self.plan = workloads.make_plan(workload, seed, "tiny")
        self.tmp_path = tmp_path
        self.monkeypatch = monkeypatch
        self.reps = 0

    def __call__(self, with_plan, trace_dir=None, part=0, verify=True):
        if not with_plan:
            return {"setup_s": 0.01}
        self.reps += 1
        cache = self.tmp_path / f"cache{self.reps}"
        cache.mkdir(parents=True)
        self.monkeypatch.setenv(worker.CACHE_ENV, str(cache))
        result = worker.run_rep(self.plan, cache, None, verify, part)
        result.update(setup_s=0.01, peak_rss_mb=1.0)
        return result


def test_planted_wrong_answer_fails_the_run(tmp_path, monkeypatch):
    from mullineux import involution
    honest = run.run("point-queries", 2, 0, False, "tiny",
                     runner=InProcess("point-queries", 2, tmp_path / "a", monkeypatch))
    assert honest["correct"] and run.exit_code(honest) == 0

    original = involution.mullineux

    def wrong(lam, e, tie_break="min"):
        image = original(lam, e, tie_break)
        return (image[0] + 1,) + image[1:]

    monkeypatch.setattr(involution, "mullineux", wrong)
    planted = run.run("point-queries", 2, 0, False, "tiny",
                      runner=InProcess("point-queries", 2, tmp_path / "b", monkeypatch))
    assert not planted["correct"]
    assert 0 < planted["failed"] < planted["attempted"]
    assert run.exit_code(planted) != 0


def test_without_the_package_the_command_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "identity", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_peak_rss_is_the_workers_own(tmp_path):
    # ru_maxrss would report this process's ballast as the worker's peak.
    ballast = bytearray(100 * 2**20)
    for offset in range(0, len(ballast), 4096):
        ballast[offset] = 1
    spawner = run.Spawner(workloads.make_plan("point-queries", 1, "tiny"), tmp_path)
    assert 0 < spawner(False)["peak_rss_mb"] < 50
    del ballast


def test_runs_of_a_part_take_turns_over_the_cpus(tmp_path):
    spawner = run.Spawner(workloads.make_plan("identity", 1, "tiny"), tmp_path)
    spawner.cpus = [0, 1]
    assert [spawner._next_cpu(0) for _ in range(3)] == [0, 1, 0]
    assert [spawner._next_cpu(1) for _ in range(3)] == [1, 0, 1]


def test_benchmark_json_names_the_workloads_and_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "bench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        [(name, unit) for name, unit, _ in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [(name, unit, better) for name, unit, better, _ in spans.LAYER_METRICS]


def test_plans_depend_only_on_the_seed():
    for workload in workloads.WORKLOADS:
        assert workloads.make_plan(workload, 7) == workloads.make_plan(workload, 7)
        assert workloads.make_plan(workload, 7) != workloads.make_plan(workload, 8)
