"""Run one benchmark workload and print its metrics.

From the root of a checkout::

    python3 perfbench/run.py --workload run-tomcatv --seed 0 --seconds 15 --trace 0

Workloads: ``run-tomcatv``, ``run-dgefa``, ``grid-cold``, ``grid-warm``
(see ``perfbench/README.md``).  The run warms up, then repeats the
workload's operation in a closed loop for ``--seconds`` and checks
every output outside the timed region.  With ``--trace 0`` it reports
the end-to-end metrics; with ``--trace 1`` it alternates untraced and
traced operations and reports the per-layer metrics.  The last line of
standard output is one JSON object::

    {"correct": true, "attempted": 9, "failed": 0,
     "metrics": {"op_p50_s": {"value": 1.93, "unit": "s"}, ...}}

Host state is pinned: the program is imported from ``src/`` of this
checkout, ``PYTHONHASHSEED=0``, every cache and service root is a
fresh directory under ``.perfbench-work/`` (removed on exit), and
sessions ignore saved calibrations.  Exits non-zero, printing no
result, when the checkout holds no program to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
sys.path.insert(0, str(ROOT))

from perfbench import WORKLOADS  # noqa: E402

#: set-up is measured this many times per run (this process plus
#: fresh child processes) and reported as the median
SETUP_SAMPLES = 3
#: fewest operations a run measures, whatever --seconds says (a traced
#: run needs two traced and two untraced ones)
MIN_OPS = {0: 3, 1: 4}


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def pin_and_reexec() -> None:
    """Re-run this script with the pinned environment (execve keeps the
    pid; ``PERFBENCH_T0`` carries the moment set-up starts)."""
    env = dict(os.environ)
    env.update(
        PYTHONHASHSEED="0",
        PYTHONPATH=str(SRC),
        PERFBENCH_PINNED="1",
        PERFBENCH_T0=repr(time.monotonic()),
    )
    os.execve(sys.executable, [sys.executable, __file__, *sys.argv[1:]], env)


def quartile_spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def probe_setup(args: argparse.Namespace) -> float:
    """Set-up time of one fresh process: interpreter start, imports and
    the workload's warm-up, host-normalized by the child itself."""
    env = dict(os.environ, PERFBENCH_T0=repr(time.monotonic()))
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", args.workload,
         "--seed", str(args.seed), "--setup-probe"],
        env=env, capture_output=True, text=True, timeout=120, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def end_to_end(args, setup_s: float, latencies: list[float], rss_mb: float):
    """``latencies`` and ``setup_s`` are already host-normalized."""
    setups = [setup_s] + [probe_setup(args) for _ in range(SETUP_SAMPLES - 1)]
    print(f"set-up samples (reference s): {[round(s, 3) for s in setups]}")
    return {
        "setup_s": (statistics.median(setups), "s"),
        "op_p50_s": (statistics.median(latencies), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def per_layer(workloads, untraced: list[float], traced_ops: list,
              reference_s: float) -> dict:
    """Every seconds value is host-normalized, each traced operation's
    by its own factor; ``reference_s`` is the run's raw reference-loop
    median."""

    def median_s(values) -> tuple[float, str]:
        return statistics.median(values), "s"

    metrics = {}
    layer_sum = 0.0
    for layer in workloads.LAYERS:
        metrics[f"{layer}_s"] = median_s(
            op.seconds.get(layer, 0.0) * op.factor for op in traced_ops
        )
        layer_sum += metrics[f"{layer}_s"][0]
    for name in workloads.PASSES:
        key = f"core.passes.{name}"
        metrics[f"{key}_s"] = median_s(
            op.detail.get(key, 0.0) * op.factor for op in traced_ops
        )
    metrics["service.point_wait_s"] = median_s(
        op.detail.get("service.point_wait", 0.0) * op.factor
        for op in traced_ops
    )
    units = {"service.catalog.hit_ratio": "ratio", "machine.sim_time": "sim_s"}
    first = traced_ops[0].counts
    for name in workloads.COUNTS:
        metrics[name] = (first.get(name, 0), units.get(name, "count"))
    slab = first.get("machine.slab_instances", 0)
    total = slab + first.get("machine.interp_instances", 0)
    metrics["machine.slab_coverage"] = (slab / total if total else 0.0, "ratio")

    traced = [op.latency * op.factor for op in traced_ops]
    untraced_p50 = statistics.median(untraced)
    traced_p50 = statistics.median(traced)
    overhead = traced_p50 - untraced_p50
    noise = max(quartile_spread(untraced), quartile_spread(traced))
    metrics["unaccounted_s"] = (untraced_p50 - layer_sum, "s")
    metrics["trace_overhead_s"] = (overhead, "s")
    metrics["untraced_spread_s"] = (quartile_spread(untraced), "s")
    metrics["traced_spread_s"] = (quartile_spread(traced), "s")
    metrics["host.reference_s"] = (reference_s, "s")
    verdict = "within noise" if abs(overhead) <= noise else "measured"
    print(
        f"untraced p50 {untraced_p50:.4f} s over {len(untraced)} ops, "
        f"traced p50 {traced_p50:.4f} s over {len(traced)} ops: "
        f"trace overhead {overhead:+.4f} s ({verdict}; quartile spread "
        f"up to {noise:.4f} s)"
    )
    print(f"layers account for {layer_sum:.4f} s of the untraced p50, "
          f"{untraced_p50 - layer_sum:+.4f} s unaccounted")
    return metrics


def measure(args: argparse.Namespace, work: Path) -> int:
    from perfbench import hostspeed, workloads

    workload = workloads.make(args.workload, args.seed, work, traced=bool(args.trace))
    setup_s = time.monotonic() - float(os.environ["PERFBENCH_T0"])
    setup_s *= hostspeed.HostClock().factor()
    if args.setup_probe:
        workload.close()
        print(json.dumps({"setup_s": setup_s}))
        return 0

    problems = [f"warm-up: {p}" for p in workload.warm_problems]
    attempted, failed = 1, int(bool(problems))
    untraced: list[float] = []
    traced_ops = []
    clock = hostspeed.HostClock()
    before = clock.sample(hostspeed.MIN_SAMPLES)
    raw: list[float] = []
    deadline = time.monotonic() + args.seconds
    i = 0
    while i < MIN_OPS[args.trace] or time.monotonic() < deadline:
        i += 1
        traced = bool(args.trace) and i % 2 == 0
        op = workload.op(i, traced)
        after = clock.after_op(op.latency)
        op.factor = hostspeed.factor_of(before + after)
        before = after or before
        attempted += 1
        if op.problems:
            failed += 1
            problems += [f"op {i}: {p}" for p in op.problems]
        if traced:
            traced_ops.append(op)
        else:
            untraced.append(op.latency * op.factor)
            raw.append(op.latency)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    reference_s = statistics.median(clock.samples)
    print(f"host speed: reference loop median {reference_s:.4f} s over "
          f"{len(clock.samples)} samples (REFERENCE_S "
          f"{hostspeed.REFERENCE_S} s)")

    final = workload.final_problems()
    if final is not None:
        attempted += 1
        if final:
            failed += 1
            problems += [f"verification: {p}" for p in final]
    workload.close()

    if args.trace:
        metrics = per_layer(workloads, untraced, traced_ops, reference_s)
    else:
        metrics = end_to_end(args, setup_s, untraced, rss_mb)
    print(f"{args.workload}: {len(raw)} untraced ops, wall p50 "
          f"{statistics.median(raw):.4f} s (quartile spread "
          f"{quartile_spread(raw):.4f} s), "
          f"{statistics.median(untraced):.4f} reference s")
    for problem in problems:
        print(f"FAIL {problem}")
    print(f"fail_ratio {failed}/{attempted}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


def main() -> int:
    args = parse_args()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure at {SRC}", file=sys.stderr)
        return 2
    if os.environ.get("PERFBENCH_PINNED") != "1":
        pin_and_reexec()
    work = WORK / str(os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    # every default cache root the program could fall back to, and
    # every temporary file, stay inside the checkout
    (work / "tmp").mkdir()
    os.environ["TMPDIR"] = str(work / "tmp")
    os.environ["REPRO_CACHE_DIR"] = str(work / "cache")
    os.environ["REPRO_SERVICE_DIR"] = str(work / "service-default")
    os.environ["XDG_CACHE_HOME"] = str(work / "xdg")
    try:
        return measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
