"""The sweep engine: fan a job grid out over a worker pool.

``run_sweep`` executes :class:`~repro.sweep.spec.SweepJob` records —
serially in-process, or on a pool of worker processes — and returns
one :class:`~repro.sweep.spec.SweepResult` per job, in job order.
Results also *stream*: an ``on_result`` callback fires as each point
completes, so long grids report progress instead of going dark
(``on_point`` also gets the point's index in the job list).

The pool is plain: each worker runs **one job at a time** over its
own pipe, so a worker that dies (segfault, OOM kill) forfeits exactly
its in-flight job.  That job comes back ``ok=False`` with
``worker="crashed"`` and the exit code in ``error``; the remaining
jobs continue on a replacement worker.  Nothing is timed out or
retried here: the sweep service's job queue is the one fault-tolerance
layer — it never commits a crashed point and re-claims the shard.  A
job that raises an ordinary exception (compile error, bad source)
comes back ``ok=False`` with its traceback.

Every compile goes through the optional persistent
:class:`~repro.core.diskcache.CompileCache`, shared by path across
workers (stores are atomic), so a warm sweep skips the pass pipeline
at every point.  Pool activity and cache traffic land in a
:class:`repro.obs.Metrics` registry; per-job completion events land in
the :class:`repro.obs.Tracer`.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import traceback
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import Connection, wait
from typing import Callable, Iterable, Sequence

from ..core.diskcache import CompileCache, as_compile_cache
from ..core.passes import PassManager
from ..obs import Metrics, NULL_TRACER, Tracer
from .batched import compile_with_memo, plan_batches, run_batched
from .spec import SweepJob, SweepResult, SweepSpec

#: execution modes of :func:`run_sweep` — how the grid is *run*, as
#: opposed to ``SweepSpec.mode`` which says what each point *measures*
EXEC_MODES = ("auto", "pool", "batched")


# ---------------------------------------------------------------------------
# In-process execution of one job
# ---------------------------------------------------------------------------


def _measure_payload(job: SweepJob, compiled) -> dict:
    """Run the job's measurement mode over the compiled program."""
    payload: dict = {"grid_size": compiled.grid.size}
    if job.mode == "estimate":
        from ..perf.estimator import PerfEstimator

        estimate = PerfEstimator(compiled).estimate()
        payload.update(
            total_time=estimate.total_time,
            compute_time=estimate.compute_time,
            comm_time=estimate.comm_time,
        )
    elif job.mode == "simulate":
        from ..ir.build import make_inputs
        from ..machine.simulator import simulate

        inputs = make_inputs(compiled.proc, job.seed)
        # tier="auto" matches Session.run and the batched fast path
        # (which the parity suite byte-compares against this payload)
        sim = simulate(compiled, inputs, tier="auto")
        payload.update(
            elapsed=sim.elapsed,
            canonical_stats=sim.canonical_stats(),
            slab_coverage=round(sim.slab_coverage, 6),
            messages=sim.stats.messages,
            fetches=sim.stats.fetches,
            unexpected_fetches=sim.stats.unexpected_fetches,
        )
    else:  # "compile"
        payload.update(report=compiled.report())
    return payload


def execute_job(
    job: SweepJob,
    *,
    manager: PassManager | None = None,
    cache: CompileCache | None = None,
    memo: dict | None = None,
) -> SweepResult:
    """Compile (through the cache when given) and measure one job
    in-process.  Never raises: failures come back as ``ok=False``
    records carrying the traceback.

    ``memo`` is an in-run compiled-program table keyed on ``(source,
    options signature)``: grid points that repeat a compile (duplicate
    points, points differing only in seed) reuse it instead of
    re-running the pass pipeline — pool workers keep one per process,
    the serial path one per sweep.  A memo hit sets
    ``result.compile_dedup``.
    """
    started = time.perf_counter()
    result = SweepResult(
        label=job.label,
        program=job.program,
        mode=job.mode,
        procs=job.procs,
        options=job.options,
    )
    try:
        manager = manager or PassManager()
        compiled, hit, deduped = compile_with_memo(
            job, manager=manager, cache=cache, memo=memo
        )
        result.cache_hit = hit
        result.compile_dedup = deduped
        for name, value in _measure_payload(job, compiled).items():
            setattr(result, name, value)
    except Exception:
        result.ok = False
        result.error = traceback.format_exc()
    result.duration_s = time.perf_counter() - started
    return result


# ---------------------------------------------------------------------------
# The pool
# ---------------------------------------------------------------------------


def _count_result(metrics: Metrics | None, result: SweepResult) -> None:
    """Bump the per-point sweep counters for one finished ``result`` —
    the one place every execution path (serial, pool, batched) counts
    ``sweep.jobs_ok``/``jobs_failed``/``cache_hits``/``compile_dedup``."""
    if metrics is None:
        return
    metrics.inc("sweep.jobs_ok" if result.ok else "sweep.jobs_failed")
    if result.cache_hit:
        metrics.inc("sweep.cache_hits")
    if result.compile_dedup:
        metrics.inc("sweep.compile_dedup")


def _worker_main(conn, parent_end, cache_root: str | None) -> None:
    """One pool worker: executes one job at a time until sent None, or
    until the parent dies (even by ``os._exit``: orphans never linger).
    Keeps a process-lifetime PassManager so repeated points of the same
    program share parse + front-end analyses even on cache misses."""
    parent_end.close()
    parent = multiprocessing.parent_process().sentinel
    cache = CompileCache(cache_root) if cache_root else None
    manager = PassManager()
    memo: dict = {}
    while parent not in wait([conn, parent]):
        job = conn.recv()
        if job is None:
            return
        conn.send(execute_job(job, manager=manager, cache=cache, memo=memo))


@dataclass
class _Worker:
    id: int
    proc: multiprocessing.Process
    conn: Connection
    #: index of the job in flight, None while idle
    current: int | None = None


class _Supervisor:
    """The plain N-process pool of the module docstring: at most
    ``workers`` forked workers, one job each at a time; a dead worker's
    job becomes a crash record and a replacement is spawned while jobs
    remain."""

    def __init__(
        self,
        jobs: Sequence[SweepJob],
        *,
        workers: int,
        cache: CompileCache | None,
        tracer: Tracer,
        metrics: Metrics | None,
        on_result: Callable[[int, SweepResult], None] | None,
    ):
        self.jobs = jobs
        self.cache = cache
        self.tracer = tracer
        self.metrics = metrics
        self.on_result = on_result
        self.results: dict[int, SweepResult] = {}
        self.pending: deque[int] = deque(range(len(jobs)))
        self.workers: list[_Worker] = []
        self.target_workers = workers
        self.next_worker_id = 0

    def _spawn_worker(self) -> None:
        conn, child_conn = multiprocessing.Pipe()
        worker_id = self.next_worker_id
        self.next_worker_id += 1
        proc = multiprocessing.Process(
            target=_worker_main,
            args=(
                child_conn,
                conn,
                str(self.cache.root) if self.cache else None,
            ),
            daemon=True,
            name=f"repro-sweep-{worker_id}",
        )
        proc.start()
        child_conn.close()
        self.workers.append(_Worker(id=worker_id, proc=proc, conn=conn))

    def _shutdown(self) -> None:
        for worker in self.workers:
            try:
                worker.conn.send(None)
            except OSError:
                pass
        deadline = time.monotonic() + 2.0
        for worker in self.workers:
            worker.proc.join(timeout=max(0.0, deadline - time.monotonic()))
            if worker.proc.is_alive():
                worker.proc.terminate()
                worker.proc.join(timeout=1.0)
            worker.conn.close()

    def _inc(self, name: str, amount: float = 1) -> None:
        if self.metrics is not None:
            self.metrics.inc(name, amount)

    def _record(self, index: int, result: SweepResult) -> None:
        self.results[index] = result
        _count_result(self.metrics, result)
        self.tracer.instant(
            "sweep.job",
            cat="sweep",
            label=result.label,
            ok=result.ok,
            worker=result.worker,
            cache_hit=result.cache_hit,
            duration_s=round(result.duration_s, 6),
        )
        if self.on_result is not None:
            self.on_result(index, result)

    def _crashed(self, worker: _Worker) -> SweepResult:
        """Drop a dead worker; its in-flight job becomes a crash record."""
        self.workers.remove(worker)
        worker.proc.join(timeout=1.0)
        worker.conn.close()
        self._inc("sweep.worker_crashes")
        job = self.jobs[worker.current]
        return SweepResult(
            label=job.label,
            program=job.program,
            mode=job.mode,
            procs=job.procs,
            options=job.options,
            ok=False,
            error=f"worker crashed (exit code {worker.proc.exitcode})",
            worker="crashed",
        )

    def run(self) -> list[SweepResult]:
        total = len(self.jobs)
        try:
            while len(self.results) < total:
                unfinished = total - len(self.results)
                while self.pending and len(self.workers) < min(
                    self.target_workers, unfinished
                ):
                    self._spawn_worker()
                for worker in self.workers:
                    if worker.current is None and self.pending:
                        worker.current = self.pending.popleft()
                        try:
                            worker.conn.send(self.jobs[worker.current])
                        except OSError:
                            pass  # dead already: its sentinel reports it
                busy = [w for w in self.workers if w.current is not None]
                ready = set(wait(
                    [w.conn for w in busy] + [w.proc.sentinel for w in busy]
                ))
                for worker in busy:
                    if not ready & {worker.conn, worker.proc.sentinel}:
                        continue
                    index = worker.current
                    try:
                        result = worker.conn.recv()
                        result.worker = f"worker-{worker.id}"
                        worker.current = None
                    except (EOFError, OSError):
                        result = self._crashed(worker)
                    self._record(index, result)
        finally:
            self._shutdown()
        return [self.results[index] for index in range(total)]


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _run_job_list(
    jobs: Sequence[SweepJob],
    *,
    workers: int,
    cache: CompileCache | None,
    manager: PassManager | None,
    tracer: Tracer,
    metrics: Metrics | None,
    on_result: Callable[[int, SweepResult], None],
) -> list[SweepResult]:
    """The per-job execution paths (serial in-process, or the
    process pool), shared by the pool mode and the batched mode's
    non-batchable remainder.  ``on_result`` gets each result with its
    index in ``jobs``."""
    if workers <= 1 or len(jobs) == 1:
        shared = manager or PassManager(tracer=tracer)
        memo: dict = {}
        results = []
        for index, job in enumerate(jobs):
            with tracer.span("sweep.job", cat="sweep", label=job.label):
                result = execute_job(
                    job, manager=shared, cache=cache, memo=memo
                )
            _count_result(metrics, result)
            on_result(index, result)
            results.append(result)
        return results
    supervisor = _Supervisor(
        jobs,
        workers=workers,
        cache=cache,
        tracer=tracer,
        metrics=metrics,
        on_result=on_result,
    )
    return supervisor.run()


def run_sweep(
    spec: SweepSpec | Iterable[SweepJob],
    *,
    workers: int | None = None,
    cache: CompileCache | str | os.PathLike | bool | None = None,
    manager: PassManager | None = None,
    tracer: Tracer | None = None,
    metrics: Metrics | None = None,
    on_result: Callable[[SweepResult], None] | None = None,
    on_point: Callable[[int, SweepResult], None] | None = None,
    mode: str = "auto",
) -> list[SweepResult]:
    """Execute a sweep, returning one result per job in job order.

    ``workers``: None picks ``min(cpu_count, job count)``; 0 or 1
    forces in-process serial execution (sharing ``manager`` across
    points, so front-end analyses are reused like the table builders
    always did).  A pool worker that dies forfeits its one in-flight
    point, which comes back ``ok=False`` with ``worker="crashed"``;
    nothing is retried (:meth:`repro.api.Session.submit` is the
    durable path).  ``cache`` enables the persistent compile
    cache (path, True for the default root, or a
    :class:`CompileCache`).  ``on_result(result)`` and
    ``on_point(index, result)`` fire as each point completes, in
    completion order; ``index`` is the point's position in the job list.

    ``mode`` picks the execution strategy: ``"pool"`` runs every job
    through the per-job paths above; ``"batched"`` routes
    simulate/estimate points through the vectorized batch evaluator
    (:mod:`repro.sweep.batched`) — points differing only in machine
    parameters share one simulation, points differing only in the
    processor count fuse into procs sub-groups of one batch (sharing
    compiles where the resolved grid agrees, and one procs-lane
    estimate), repeated compiles dedupe — with everything
    non-batchable falling back to the pool; ``"auto"`` (default) uses
    the batched path exactly when some batch has two or more lanes to
    fuse.  Results are identical across modes (the parity suite
    byte-compares them); only the wall clock differs.
    """
    jobs = list(spec.jobs() if isinstance(spec, SweepSpec) else spec)
    if mode not in EXEC_MODES:
        raise ValueError(
            f"mode must be one of {EXEC_MODES}, got {mode!r}"
        )
    tracer = tracer if tracer is not None else NULL_TRACER
    disk_cache = as_compile_cache(cache)
    if metrics is not None:
        metrics.inc("sweep.jobs", len(jobs))
    if workers is None:
        workers = min(os.cpu_count() or 1, len(jobs))
    if not jobs:
        return []

    batches: list = []
    leftover = list(range(len(jobs)))
    if mode != "pool":
        planned, rest = plan_batches(jobs)
        if mode == "batched" or any(len(b) > 1 for b in planned):
            batches, leftover = planned, rest

    def emit(index: int, result: SweepResult) -> None:
        if on_result is not None:
            on_result(result)
        if on_point is not None:
            on_point(index, result)

    with tracer.span(
        "sweep",
        cat="sweep",
        jobs=len(jobs),
        workers=max(workers, 1),
        batches=len(batches),
    ):
        merged: dict[int, SweepResult] = {}
        if batches:
            shared = manager or PassManager(tracer=tracer)
            merged.update(
                run_batched(
                    batches,
                    manager=shared,
                    cache=disk_cache,
                    memo={},
                    tracer=tracer,
                    metrics=metrics,
                    on_result=emit,
                )
            )
        if leftover:
            rest_results = _run_job_list(
                [jobs[i] for i in leftover],
                workers=min(workers, len(leftover)),
                cache=disk_cache,
                manager=manager,
                tracer=tracer,
                metrics=metrics,
                on_result=lambda k, result: emit(leftover[k], result),
            )
            merged.update(zip(leftover, rest_results))
        results = [merged[i] for i in range(len(jobs))]

    if metrics is not None and disk_cache is not None:
        for name, value in disk_cache.stats.as_dict().items():
            metrics.gauge(f"sweep.disk_cache.{name}", value)
    return results
