"""Tests of the benchmark itself: its counts repeat exactly, its
checkers catch wrong outputs, and it refuses a checkout without the
program.

Run from the repository root::

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import copy
import json
import re
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from perfbench import checks, workloads  # noqa: E402
from perfbench.layers import Probe, Recorder, probes  # noqa: E402
from repro import Session  # noqa: E402
from repro.programs import tomcatv_source  # noqa: E402
from repro.sweep import SweepSpec, run_sweep  # noqa: E402

SMALL = tomcatv_source(n=9, niter=1, procs=4)
#: units of the metrics that must repeat exactly at one seed
EXACT_UNITS = ("count", "ratio", "sim_s")


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=False,
    )


def result_line(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_at_one_seed(workload):
    runs = [
        result_line(bench("--workload", workload, "--seed", "3",
                          "--seconds", "0", "--trace", "1"))
        for _ in range(2)
    ]
    for run in runs:
        assert run["correct"] and run["failed"] == 0
    exact = [
        {
            name: metric["value"]
            for name, metric in run["metrics"].items()
            if metric["unit"] in EXACT_UNITS
        }
        for run in runs
    ]
    assert "machine.sim_time" in exact[0]
    assert exact[0] == exact[1]


def test_end_to_end_run_reports_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    run = result_line(bench("--workload", "run-dgefa", "--seed", "0",
                            "--seconds", "0", "--trace", "0"))
    assert run["correct"]
    assert sorted(run["metrics"]) == sorted(m["name"] for m in spec["end_to_end"])
    for metric in spec["end_to_end"]:
        assert run["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert run["metrics"][metric["name"]]["value"] > 0


def test_traced_run_reports_every_layer_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    run = result_line(bench("--workload", "run-dgefa", "--seed", "0",
                            "--seconds", "0", "--trace", "1"))
    assert sorted(run["metrics"]) == sorted(m["name"] for m in spec["per_layer"])


def test_check_run_catches_a_perturbed_oracle_array():
    result = Session(use_calibration=False).run(SMALL, seed=1)
    assert checks.check_run(result) == []
    oracle = result.sequential.arrays["X"]
    oracle[2, 2] += 1.0
    assert checks.check_run(result) == ["array X differs from the oracle"]


def test_check_tie_catches_perturbed_canonical_stats():
    (point,) = run_sweep(
        SweepSpec(programs={"tomcatv": SMALL}, procs=(4,), mode="simulate",
                  seed=5),
        workers=0,
    )
    run = Session(use_calibration=False).run(SMALL, seed=5, num_procs=4)
    assert checks.check_tie(point, run) == []
    point.canonical_stats = copy.deepcopy(point.canonical_stats)
    point.canonical_stats["clocks"]["time"][0] *= 2
    assert checks.check_tie(point, run)


def test_check_same_renumbers_statements_only_when_asked():
    a = copy.copy(run_sweep([workloads.grid_jobs(0)[-1]], workers=0)[0])
    b = copy.copy(a)
    b.report = re.sub(
        r"\bS(\d+)\b", lambda m: f"S{int(m.group(1)) + 1000}", a.report
    )
    assert checks.check_same([b], [a], "x") != []
    assert checks.check_same([b], [a], "x", renumber=True) == []


def test_self_times_partition_nested_calls():
    def outer():
        time.sleep(0.02)
        layer.inner()

    def inner():
        time.sleep(0.03)

    layer = types.SimpleNamespace(outer=outer, inner=inner)
    recorder = Recorder()
    with probes(recorder, [Probe(layer, "outer", "a"), Probe(layer, "inner", "b")]):
        started = time.perf_counter()
        layer.outer()
        total = time.perf_counter() - started
    seconds, _, _ = recorder.take()
    assert layer.outer is outer and layer.inner is inner
    assert seconds["b"] >= 0.03 and seconds["a"] >= 0.02
    assert abs(seconds["a"] + seconds["b"] - total) < 0.005


def test_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = bench("--workload", "run-dgefa", "--seed", "0", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
