"""The benchmark's workloads: what each operation is, how it is timed
and traced, and how its output is checked.

Every workload is a closed loop with one client: the next operation
starts when the previous one returned.  ``make(name, seed, work)``
builds a workload and runs its warm-up; ``op(i, traced)`` then runs
operation ``i`` (from 1) and returns an :class:`Op`.  See
``perfbench/README.md`` for why each workload was chosen.
"""

from __future__ import annotations

import dataclasses
import shutil
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import repro.codegen.seq
import repro.ir.build
import repro.machine.simulator
import repro.service.worker
import repro.sweep.batched
import repro.sweep.engine
from repro import Session
from repro.model import SP2
from repro.obs import NULL_TRACER, Metrics, Tracer
from repro.perf.estimator import PerfEstimator
from repro.programs import appsp_source, dgefa_source, tomcatv_source
from repro.service import SweepService
from repro.service.catalog import Catalog
from repro.service.queue import JobQueue
from repro.service.service import JobHandle
from repro.sweep import SweepSpec

from . import WORKLOADS, checks
from .layers import Probe, Recorder, probes

#: per-layer self-time metrics (``<layer>_s``); every workload reports
#: all of them, 0 for a layer its operation never enters
LAYERS = (
    "api.compile",
    "ir.inputs",
    "codegen.oracle",
    "machine.simulate",
    "api.validate",
    "service.submit",
    "service.serve",
    "service.queue.claim",
    "service.catalog.lookup",
    "service.commit",
    "service.result",
    "sweep.run",
    "sweep.plan",
    "sweep.batched",
    "sweep.compile",
    "perf.estimate",
    "sweep.pool",
    "sweep.job",
)

#: the compile pipeline as ``CompiledProgram.timings`` names it; these
#: break ``api.compile_s`` down and are not added to the layer sum
PASSES = (
    "parse",
    "grid",
    "ssa",
    "induction",
    "reductions",
    "privatizability",
    "array-directives",
    "context",
    "scalar-mapping",
    "array-mapping",
    "control-flow",
    "partitioning",
    "comm-analysis",
    "message-combining",
    "lowering",
    "slabexec",
    "tierplan",
)

#: counts read from the program's own counters, from the first traced
#: operation (its inputs are fixed by the seed, so they repeat exactly)
COUNTS = (
    "machine.slab_takeovers",
    "machine.slab_bails",
    "machine.slab_instances",
    "machine.interp_instances",
    "machine.messages",
    "machine.fetches",
    "perf.tierplan.slab_nests",
    "perf.tierplan.lowered_nests",
    "sweep.batches",
    "sweep.procs_lanes",
    "sweep.compile_dedup",
    "sweep.fallbacks",
    "core.diskcache.hits",
    "core.diskcache.misses",
    "service.catalog.lookups",
    "service.catalog.evaluations",
    "service.catalog.reuses",
    "service.catalog.hit_ratio",
    "machine.sim_time",
)

#: the five machine variants of the procs grid in benchmarks/sweep_gate.py
MACHINES = (
    SP2,
    dataclasses.replace(SP2, name="fast-net", alpha=5e-6, beta=1.0 / 300e6),
    dataclasses.replace(SP2, name="slow-net", alpha=200e-6, beta=1.0 / 5e6),
    dataclasses.replace(SP2, name="fast-cpu", flop_time=1.0 / 500e6),
    dataclasses.replace(SP2, name="slow-cpu", flop_time=1.0 / 5e6),
)
PROCS = (2, 4, 8, 16)
STRATEGIES = ("selected", "producer", "replication", "consumer", "noalign")
BACKEND = "pool:2"
SHARDS = 2


@dataclass
class Op:
    """One timed operation: wall seconds, the problems its checks found,
    (traced only) per-layer self seconds, detail seconds and counts, and
    the host-speed factor of the moment it ran (set by the caller)."""

    latency: float
    problems: list[str]
    seconds: dict[str, float] = field(default_factory=dict)
    detail: dict[str, float] = field(default_factory=dict)
    counts: dict[str, float] = field(default_factory=dict)
    factor: float = 1.0


# -- probes shared by every workload ---------------------------------------


def _pass_timings(recorder: Recorder):
    def note(args, kwargs, compiled) -> None:
        for timing in compiled.timings.passes.values():
            recorder.detail[f"core.passes.{timing.name}"] += timing.seconds

    return note


def _ensure_metrics(args, kwargs) -> None:
    # the sweep paths simulate without a registry; slab takeovers and
    # bails are only counted into one
    if kwargs.get("metrics") is None:
        kwargs["metrics"] = Metrics()


def _sim_counts(recorder: Recorder):
    def note(args, kwargs, sim) -> None:
        counters = sim.metrics.counters
        counts = recorder.counts
        counts["machine.slab_takeovers"] += sum(
            v for k, v in counters.items() if k.startswith("slab.takeover[")
        )
        counts["machine.slab_bails"] += sum(
            v for k, v in counters.items() if k.startswith("slab.bail[")
        )
        counts["machine.slab_instances"] += sim.slab_instances
        counts["machine.interp_instances"] += sim.interp_instances
        counts["machine.messages"] += sim.stats.messages
        counts["machine.fetches"] += sim.stats.fetches
        plan = getattr(args[0], "tierplan", None)
        if plan is not None:
            summary = plan.summary()
            counts["perf.tierplan.slab_nests"] += summary["slab"]
            counts["perf.tierplan.lowered_nests"] += summary["lowered"]

    return note


def _simulate_probe(recorder: Recorder) -> Probe:
    return Probe(
        repro.machine.simulator, "simulate", "machine.simulate",
        on_call=_ensure_metrics, on_return=_sim_counts(recorder),
    )


# -- run-tomcatv / run-dgefa -----------------------------------------------


class RunWorkload:
    """Repeated ``Session.run(validate=True, tier="auto")`` of one
    program on one Session, seed ``s + i`` for call ``i``."""

    def __init__(self, source: str, seed: int, traced: bool):
        self.source = source
        self.seed = seed
        self.recorder = Recorder()
        self.session = Session(use_calibration=False)
        self.warm_problems = checks.check_run(self._run(self.session, seed))
        if traced:
            # its own PassManager, warmed like the untraced one
            self.traced_session = Session(
                use_calibration=False, tracer=Tracer(), metrics=Metrics()
            )
            self.warm_problems += checks.check_run(
                self._run(self.traced_session, seed)
            )

    def _run(self, session: Session, seed: int):
        return session.run(self.source, seed=seed, validate=True, tier="auto")

    def _probes(self) -> list[Probe]:
        rec = self.recorder
        return [
            Probe(Session, "run", "api.run"),
            Probe(Session, "compile", "api.compile",
                  on_return=_pass_timings(rec)),
            Probe(repro.ir.build, "parse_and_build", "ir.inputs"),
            Probe(repro.codegen.seq, "run_sequential", "codegen.oracle"),
            _simulate_probe(rec),
        ]

    def op(self, i: int, traced: bool) -> Op:
        seed = self.seed + i
        session = self.session
        if traced:
            session = self.traced_session
            session.tracer.clear()
            session.metrics = Metrics()
        with probes(self.recorder, self._probes()) if traced else nullcontext():
            started = time.perf_counter()
            result = self._run(session, seed)
            latency = time.perf_counter() - started
        op = Op(latency, checks.check_run(result))
        if traced:
            op.seconds, op.detail, op.counts = self.recorder.take()
            op.counts["machine.sim_time"] = result.elapsed
        return op

    def final_problems(self) -> list[str] | None:
        """Problems of the checks made once per run (None: no such
        checks; every run output was checked as it came)."""
        return None

    def close(self) -> None:
        pass


# -- grid-cold / grid-warm -------------------------------------------------


def paper_programs() -> dict[str, Any]:
    """The table programs at the paper's sizes (Tables 1-3)."""
    return {
        "tomcatv": lambda p: tomcatv_source(n=513, niter=5, procs=p),
        "dgefa": lambda p: dgefa_source(n=1000, procs=p),
        "appsp-2d": lambda p: appsp_source(
            nx=64, ny=64, nz=64, niter=5, procs=p, distribution="2d"
        ),
    }


def grid_jobs(seed: int) -> list:
    """The 135-point job: 60 simulate points (batched machine lanes and
    procs fusion), 60 estimate points (compile passes + estimator) and
    15 compile points (the only ones the process pool receives)."""
    simulate = SweepSpec(
        programs={
            "tomcatv": lambda p: tomcatv_source(n=65, niter=1, procs=p),
            "dgefa": lambda p: dgefa_source(n=40, procs=p),
            "appsp-2d": lambda p: appsp_source(
                nx=12, ny=12, nz=12, niter=1, procs=p, distribution="2d"
            ),
        },
        procs=PROCS,
        axes={"machine": MACHINES},
        mode="simulate",
        seed=seed,
    )
    estimate = SweepSpec(
        programs=paper_programs(),
        procs=PROCS,
        axes={"strategy": STRATEGIES},
        mode="estimate",
    )
    compile_only = SweepSpec(
        programs=paper_programs(),
        procs=(16,),
        axes={"strategy": STRATEGIES},
        mode="compile",
    )
    return simulate.jobs() + estimate.jobs() + compile_only.jobs()


def warmup_jobs(seed: int) -> list:
    """A few points of each mode at toy sizes: loads every module a
    job touches without measuring anything the timed jobs reuse."""
    small = {
        "tomcatv": lambda p: tomcatv_source(n=9, niter=1, procs=p),
        "dgefa": lambda p: dgefa_source(n=8, procs=p),
    }
    jobs = []
    for mode, axes in (
        ("simulate", {"machine": MACHINES[:2]}),
        ("estimate", {"strategy": STRATEGIES[:2]}),
        ("compile", {"strategy": STRATEGIES[:2]}),
    ):
        jobs += SweepSpec(
            programs=small, procs=(2, 4), axes=axes, mode=mode, seed=seed
        ).jobs()
    return jobs


def run_job(service: SweepService, jobs: list) -> tuple[list, float]:
    """Submit ``jobs``, drain the queue in this process, collect the
    results: the latency a client of the service sees."""
    started = time.perf_counter()
    handle = service.submit(jobs, shards=SHARDS)
    service.serve_forever(once=True)
    results = handle.result()
    return results, time.perf_counter() - started


def verify_against_direct(jobs: list, results: list) -> list[str]:
    """Tie the job's unchecked numbers to the oracle: for each
    (program, procs) pair the baseline-machine simulate point must
    equal a validated ``Session.run`` byte for byte, and every estimate
    point must equal a direct ``Session.estimate``."""
    session = Session(use_calibration=False)
    problems = []
    for job, result in zip(jobs, results):
        overrides = job.options.overrides_from_defaults()
        if job.mode == "simulate" and job.options.machine == SP2:
            run = session.run(
                job.source, seed=job.seed, validate=True, tier="auto",
                **overrides,
            )
            problems += checks.check_tie(result, run)
        elif job.mode == "estimate":
            problems += checks.check_estimate(
                result, session.estimate(job.source, **overrides)
            )
    return problems


class GridWorkload:
    """Shared by both grid workloads: the job, the probes, the checks."""

    def __init__(self, seed: int, work: Path):
        self.work = work
        self.jobs = grid_jobs(seed)
        self.recorder = Recorder()
        #: the first job's results: later jobs must equal them, and the
        #: run's final verification ties them to the oracle
        self.reference: list | None = None
        self.op_started = 0.0
        self.point_waits: list[float] = []

    def _service(self, root: Path, traced: bool) -> SweepService:
        return SweepService(
            root,
            backend=BACKEND,
            tracer=Tracer() if traced else None,
            metrics=Metrics() if traced else None,
        )

    def _probes(self) -> list[Probe]:
        rec = self.recorder
        engine, batched = repro.sweep.engine, repro.sweep.batched

        def lookup_seen(args, kwargs, result) -> None:
            rec.counts["service.catalog.lookups"] += 1
            rec.counts["service.catalog.lookup_hits"] += result is not None

        def committed(args, kwargs, result) -> None:
            self.point_waits.append(time.perf_counter() - self.op_started)

        return [
            Probe(SweepService, "submit", "service.submit"),
            Probe(SweepService, "serve_forever", "service.serve"),
            Probe(JobQueue, "claim", "service.queue.claim"),
            Probe(Catalog, "lookup", "service.catalog.lookup",
                  on_return=lookup_seen),
            Probe(JobQueue, "complete_point", "service.commit",
                  on_return=committed),
            Probe(Catalog, "record_result", "service.commit"),
            Probe(Catalog, "record_compile", "service.commit"),
            Probe(JobHandle, "result", "service.result"),
            Probe(repro.service.worker, "run_sweep", "sweep.run"),
            Probe(engine, "plan_batches", "sweep.plan"),
            Probe(engine, "run_batched", "sweep.batched"),
            Probe(engine, "compile_with_memo", "sweep.compile"),
            Probe(batched, "compile_with_memo", "sweep.compile"),
            Probe(batched, "compile_source", "api.compile",
                  on_return=_pass_timings(rec)),
            Probe(PerfEstimator, "estimate", "perf.estimate"),
            _simulate_probe(rec),
            Probe(engine._Supervisor, "run", "sweep.pool"),
            Probe(engine, "execute_job", "sweep.job"),
        ]

    def _timed_job(self, service: SweepService, traced: bool) -> tuple[list, Op]:
        cache_before = service.cache.stats.as_dict()
        audit_before = service.catalog.stats_dict()["results"]
        self.point_waits = []
        with probes(self.recorder, self._probes()) if traced else nullcontext():
            self.op_started = time.perf_counter()
            results, latency = run_job(service, self.jobs)
        op = Op(latency, checks.check_job(self.jobs, results))
        if traced:
            op.seconds, op.detail, op.counts = self.recorder.take()
            counters = service.metrics.counters
            op.counts["sweep.batches"] = counters.get("sweep.batched_groups", 0)
            op.counts["sweep.procs_lanes"] = counters.get("sweep.procs_fused", 0)
            op.counts["sweep.compile_dedup"] = counters.get("sweep.compile_dedup", 0)
            op.counts["sweep.fallbacks"] = counters.get(
                "sweep.batched_fallbacks", 0
            ) + counters.get("sweep.serial_fallbacks", 0)
            cache_after = service.cache.stats.as_dict()
            for name in ("hits", "misses"):
                op.counts[f"core.diskcache.{name}"] = (
                    cache_after[name] - cache_before[name]
                )
            audit_after = service.catalog.stats_dict()["results"]
            for name in ("evaluations", "reuses"):
                op.counts[f"service.catalog.{name}"] = (
                    audit_after[name] - audit_before[name]
                )
            lookups = op.counts.get("service.catalog.lookups", 0)
            hits = op.counts.pop("service.catalog.lookup_hits", 0)
            op.counts["service.catalog.hit_ratio"] = hits / lookups if lookups else 0.0
            op.detail["service.point_wait"] = (
                statistics.median(self.point_waits) if self.point_waits else 0.0
            )
            op.counts["machine.sim_time"] = sum(
                r.elapsed for r in results if r.elapsed is not None
            )
        return results, op

    def final_problems(self) -> list[str]:
        if self.reference is None:
            return ["no reference job completed"]
        return verify_against_direct(self.jobs, self.reference)

    def close(self) -> None:
        pass


class GridColdWorkload(GridWorkload):
    """Each operation: the 135-point job on a fresh service root (empty
    queue, catalog and compile cache), drained by a pool:2 worker."""

    def __init__(self, seed: int, work: Path):
        super().__init__(seed, work)
        root = work / "warmup"
        service = self._service(root, traced=False)
        try:
            jobs = warmup_jobs(seed)
            results, _ = run_job(service, jobs)
            self.warm_problems = checks.check_job(jobs, results)
        finally:
            service.close()
            shutil.rmtree(root, ignore_errors=True)

    def op(self, i: int, traced: bool) -> Op:
        root = self.work / f"cold-{i}"
        service = self._service(root, traced)
        try:
            results, op = self._timed_job(service, traced)
            if not op.problems:
                op.problems += checks.check_audit(service.catalog, self.jobs)
                if self.reference is None:
                    self.reference = results
                else:
                    op.problems += checks.check_same(
                        results, self.reference, "cold results", renumber=True
                    )
        finally:
            service.close()
            shutil.rmtree(root, ignore_errors=True)
        return op


class GridWarmWorkload(GridWorkload):
    """Set-up runs the job once cold; each operation resubmits the same
    spec, which the catalog serves without evaluating anything."""

    def __init__(self, seed: int, work: Path):
        super().__init__(seed, work)
        self.service = self._service(work / "service", traced=False)
        results, _ = run_job(self.service, self.jobs)
        self.warm_problems = checks.check_job(self.jobs, results)
        self.warm_problems += checks.check_audit(self.service.catalog, self.jobs)
        self.reference = results
        results, _ = run_job(self.service, self.jobs)
        self.warm_problems += self._check_warm(results)

    def _check_warm(self, results: list) -> list[str]:
        problems = checks.check_same(results, self.reference, "warm results")
        recomputed = [r.label for r in results if r.worker != "catalog"]
        if recomputed:
            problems.append(
                f"{len(recomputed)} points recomputed on resubmission: "
                f"{recomputed[:3]}"
            )
        return problems

    def op(self, i: int, traced: bool) -> Op:
        service = self.service
        service.tracer = Tracer() if traced else NULL_TRACER
        service.metrics = Metrics() if traced else None
        results, op = self._timed_job(service, traced)
        if not op.problems:
            op.problems += self._check_warm(results)
        return op

    def final_problems(self) -> list[str]:
        return checks.check_audit(
            self.service.catalog, self.jobs
        ) + super().final_problems()

    def close(self) -> None:
        self.service.close()


def make(name: str, seed: int, work: Path, traced: bool = False):
    """Build workload ``name`` and run its warm-up (for a traced run,
    the traced side's too)."""
    if name == "run-tomcatv":
        return RunWorkload(tomcatv_source(n=97, niter=1, procs=16), seed, traced)
    if name == "run-dgefa":
        return RunWorkload(dgefa_source(n=48, procs=16), seed, traced)
    if name == "grid-cold":
        return GridColdWorkload(seed, work)
    if name == "grid-warm":
        return GridWarmWorkload(seed, work)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
