#!/usr/bin/env python
"""CI persistent-sweep-service gate.

Submits the batched-grid workload (21 simulate-mode points on TOMCATV:
3 processor counts × 7 machine-parameter variants) to a fresh service
directory as one durable job sharded across the grid's fusion groups,
then drives it with **two** ``repro serve`` worker subprocesses — and
kills one of them mid-run (``_REPRO_SERVICE_EXIT_AFTER_POINTS``
hard-exits the process after N point commits, simulating a kill -9).
The gate holds when:

* the job still completes: the surviving/replacement worker reclaims
  the dead owner's lease and drains the remaining points;
* the job's per-point results are **byte-identical** (shared
  ``repro.records`` schema, volatile provenance fields stripped) to a
  direct serial ``run_sweep(mode="batched")`` of the same grid;
* the catalog's audit shows **each grid point evaluated exactly
  once** — completed points were reused from durable state, never
  recomputed (commit-level exactly-once; only uncommitted in-flight
  work may repeat, and the audit counts it when it does);
* a resubmission of the same grid is served entirely from the catalog
  (all points ``reused``, zero new evaluations).

Each ``--backend`` is one leg with its own service directory.  A pool
leg (``pool:N``) submits the grid in ``pool`` exec mode over three
shards, so its points reach the serving processes' pool workers, and
additionally kills the surviving serving process's first pool worker
to evaluate a point: the service must commit nothing for that point
and release its shard back to the queue, whose next claim
re-evaluates it — under the same byte-identity, exactly-once and
warm-reuse checks.

Writes a JSON artifact (``--stats-out``) with each leg's queue/catalog
footprint and the kill diagnostics.

Usage::

    python benchmarks/service_gate.py [--kill-after 3]
                                      [--backend inline pool:2]
                                      [--service-dir DIR] [--stats-out F]
                                      [--verbose]

Exits 0 when every gate holds, 1 otherwise.
"""

import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC_DIR = REPO_ROOT / "src"
sys.path.insert(0, str(SRC_DIR))

from repro.records import comparable  # noqa: E402
from repro.service import KILL_AFTER_ENV, SweepService  # noqa: E402
from repro.service.service import KILLED_EXIT_CODE  # noqa: E402
from repro.sweep import SweepSpec, run_sweep  # noqa: E402

from sweep_gate import MACHINE_VARIANTS  # noqa: E402

_SERVE_SNIPPET = """
import os
import sys

import repro.sweep.engine
from repro.service import SweepService

root, backend, crash_marker = sys.argv[1:4]
if crash_marker:
    # the first pool worker to evaluate a point dies on it (the marker
    # file makes it happen exactly once)
    parent, execute_job = os.getpid(), repro.sweep.engine.execute_job

    def dies_once(job, **kwargs):
        if os.getpid() != parent:
            try:
                os.close(os.open(crash_marker, os.O_CREAT | os.O_EXCL))
            except FileExistsError:
                pass
            else:
                os._exit(32)
        return execute_job(job, **kwargs)

    # patched before the pool forks, so the workers inherit it
    repro.sweep.engine.execute_job = dies_once
service = SweepService(root, backend=backend, lease_ttl=30.0)
processed = service.serve_forever(once=True)
print(f"worker processed {processed} shard(s)")
"""


def build_spec() -> SweepSpec:
    from repro.programs import tomcatv_source

    return SweepSpec(
        programs={
            "tomcatv": lambda p: tomcatv_source(n=8, niter=1, procs=p)
        },
        procs=(2, 4, 8),
        axes={"machine": MACHINE_VARIANTS},
        mode="simulate",
    )


def spawn_worker(service_dir, backend, crash_marker="", kill_after=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR)
    env["PYTHONHASHSEED"] = env.get("PYTHONHASHSEED", "0")
    if kill_after is not None:
        env[KILL_AFTER_ENV] = str(kill_after)
    else:
        env.pop(KILL_AFTER_ENV, None)
    return subprocess.Popen(
        [sys.executable, "-c", _SERVE_SNIPPET, str(service_dir), backend,
         str(crash_marker)],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def canon(results) -> bytes:
    return json.dumps(
        [comparable(r.as_dict()) for r in results], sort_keys=True
    ).encode("utf-8")


def run_leg(backend, service_dir, spec, reference, kill_after, verbose,
            failures):
    """One backend's leg: submit, drain with a killed serving process
    (and, for a pool backend, a killed pool worker), then audit."""
    jobs = spec.jobs()
    pooled = backend.startswith("pool")
    tag = f"[{backend}]"
    stats: dict = {}
    # per-point shards give the inline leg maximal kill granularity; a
    # pool leg needs multi-point shards run per job ("pool" exec mode)
    # for its points to reach the pool workers at all
    exec_mode = "pool" if pooled else "auto"
    shards = 3 if pooled else len(jobs)
    crash_marker = service_dir.parent / f"{service_dir.name}.crashed"

    client = SweepService(service_dir)
    handle = client.submit(spec, name="service-gate", exec_mode=exec_mode,
                           shards=shards)
    stats["shards"] = handle.poll().n_shards

    started = time.perf_counter()
    doomed = spawn_worker(service_dir, backend, kill_after=kill_after)
    # the survivor's pool loses a worker: its shard must go back to the
    # queue (a crash in the doomed process would die with its lease)
    survivor = spawn_worker(service_dir, backend,
                            crash_marker if pooled else "")
    doomed_out, doomed_err = doomed.communicate(timeout=300)
    if doomed.returncode != KILLED_EXIT_CODE:
        failures.append(
            f"{tag} doomed worker exited {doomed.returncode}, expected "
            f"injected kill {KILLED_EXIT_CODE}: {doomed_err.strip()}"
        )
    else:
        print(f"{tag} killed worker pid {doomed.pid} after "
              f"{kill_after} point commit(s)")
    survivor_out, survivor_err = survivor.communicate(timeout=300)
    if survivor.returncode != 0:
        failures.append(
            f"{tag} surviving worker failed: {survivor_err.strip()}"
        )
    # the dead pid's lease is reclaimable immediately; one more drain
    # pass picks up anything the survivor exited before
    replacement = spawn_worker(service_dir, backend)
    replacement_out, _ = replacement.communicate(timeout=300)
    stats["service_elapsed_s"] = round(time.perf_counter() - started, 3)
    if verbose:
        for who, out in (("doomed", doomed_out),
                         ("survivor", survivor_out),
                         ("replacement", replacement_out)):
            print(f"  {tag} {who}: {out.strip()}")

    if pooled:
        released = [
            e.payload for e in client.queue.events_since(handle.job_id)
            if e.kind == "released" and "crashed" in e.payload["reason"]
        ]
        stats["crash_releases"] = len(released)
        if not crash_marker.exists() or not released:
            failures.append(f"{tag} no pool worker crash was released "
                            f"back to the queue")
        else:
            print(f"{tag} killed pool worker: shard "
                  f"{released[0]['shard']} released "
                  f"({released[0]['reason']}) and re-claimed")

    status = handle.poll()
    stats["job"] = status.as_dict()
    if status.state != "done":
        failures.append(
            f"{tag} job is {status.state} after worker death "
            f"({status.done}/{status.n_points} points)"
        )
    else:
        results = handle.result(timeout=60)
        print(f"{tag} job completed: {status.done}/{status.n_points} "
              f"points across {status.n_shards} shards despite the kill")
        if canon(results) != canon(reference):
            failures.append(
                f"{tag} service results diverge from the direct batched "
                f"sweep"
            )
        else:
            print(f"{tag} canonical stats byte-identical to the direct "
                  f"batched sweep across {len(results)} points")

    evaluations = [client.catalog.evaluations(job) for job in jobs]
    stats["evaluations"] = evaluations
    over = [count for count in evaluations if count != 1]
    if over:
        failures.append(
            f"{tag} {len(over)} grid point(s) not evaluated exactly "
            f"once: {sorted(set(evaluations))}"
        )
    else:
        print(f"{tag} catalog audit: every grid point evaluated exactly "
              f"once")

    # warm resubmission: all catalog, zero recomputation
    second = client.submit(spec, name="service-gate-warm",
                           exec_mode=exec_mode)
    client.serve_forever(once=True)
    warm_status = second.poll()
    stats["warm"] = warm_status.as_dict()
    if warm_status.reused != len(jobs):
        failures.append(
            f"{tag} warm resubmission recomputed points: "
            f"{warm_status.reused}/{len(jobs)} reused"
        )
    elif canon(second.result(timeout=60)) != canon(reference):
        failures.append(f"{tag} warm catalog results diverge from "
                        f"reference")
    else:
        print(f"{tag} warm resubmission served {warm_status.reused}/"
              f"{len(jobs)} points from the catalog")

    stats["catalog"] = client.catalog.stats_dict()
    stats["queue_depth"] = client.queue.depth()
    client.close()
    return stats


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--kill-after", type=int, default=3, metavar="N",
        help="hard-kill the doomed worker after N point commits "
        "(default: 3)",
    )
    parser.add_argument(
        "--backend", nargs="+", default=["inline"], metavar="NAME[:N]",
        help="serving backends, one leg each (default: inline); a "
        "pool leg also kills one pool worker",
    )
    parser.add_argument("--service-dir", default=None)
    parser.add_argument("--stats-out", default=None, metavar="F")
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args()

    scratch = None
    if args.service_dir:
        base_dir = pathlib.Path(args.service_dir)
    else:
        scratch = tempfile.mkdtemp(prefix="repro-service-gate-")
        base_dir = pathlib.Path(scratch)

    failures: list[str] = []
    stats: dict = {"kill_after": args.kill_after}
    spec = build_spec()
    jobs = spec.jobs()
    print(f"service grid: {len(jobs)} simulate-mode points "
          f"(3 procs x {len(MACHINE_VARIANTS)} machines)")

    try:
        # the reference: direct serial batched sweep, no service
        started = time.perf_counter()
        reference = run_sweep(jobs, workers=0, mode="batched")
        stats["direct_batched_s"] = round(time.perf_counter() - started, 3)
        if not all(r.ok for r in reference):
            failures.append("direct batched reference sweep had failures")
        for number, backend in enumerate(args.backend):
            stats[backend] = run_leg(
                backend, base_dir / f"svc-{number}", spec, reference,
                args.kill_after, args.verbose, failures,
            )
    finally:
        if scratch:
            shutil.rmtree(scratch, ignore_errors=True)

    if args.stats_out:
        with open(args.stats_out, "w", encoding="utf-8") as handle_out:
            json.dump(stats, handle_out, indent=1, sort_keys=True,
                      default=str)
            handle_out.write("\n")
        print(f"wrote stats to {args.stats_out}")

    if failures:
        print()
        for failure in failures:
            print(f"GATE FAILURE: {failure}", file=sys.stderr)
        return 1
    print("service gate OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
