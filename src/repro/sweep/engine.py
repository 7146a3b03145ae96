"""The sweep engine: fan a job grid out over a worker pool.

``run_sweep`` executes :class:`~repro.sweep.spec.SweepJob` records —
serially in-process, or on a pool of worker processes — and returns
one :class:`~repro.sweep.spec.SweepResult` per job, in job order.
Results also *stream*: an ``on_result`` callback fires as each point
completes, so long grids report progress instead of going dark.

The pool is supervised, not fire-and-forget:

* each worker runs **one job at a time** through its own task/result
  queue pair, so a dead or hung worker forfeits exactly one job;
* a worker that **crashes** (exits without reporting) or **times out**
  (``timeout`` seconds per job) is killed and respawned, and its job
  is requeued with exponential backoff, up to ``retries`` extra
  attempts;
* a job that exhausts its pool attempts **degrades to in-process
  serial execution** — a poisoned pool can slow a sweep down, but it
  cannot lose a grid point;
* a job that raises an ordinary exception (compile error, bad source)
  fails *fast*: deterministic errors are reported, not retried.

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
import queue as queue_mod
import time
import traceback
from collections import deque
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Sequence

from ..core.diskcache import CompileCache, as_compile_cache
from ..core.passes import PassManager
from ..obs import Metrics, NULL_TRACER, Tracer
from .batched import compile_with_memo, plan_batches, run_batched
from .spec import SweepJob, SweepResult, SweepSpec

#: execution modes of :func:`run_sweep` — how the grid is *run*, as
#: opposed to ``SweepSpec.mode`` which says what each point *measures*
EXEC_MODES = ("auto", "pool", "batched")

#: environment marker set inside pool workers; failure injection (the
#: engine's own crash/hang tests) only ever fires where it is set, so
#: the serial fallback path is immune by construction
_WORKER_ENV = "_REPRO_SWEEP_WORKER"


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
# Pool worker
# ---------------------------------------------------------------------------


def _apply_injection(job: SweepJob, attempt: int) -> None:
    """Honour a job's failure-injection knobs (tests only; guarded by
    the worker environment marker)."""
    inject = dict(job.inject or {})
    if not inject or _WORKER_ENV not in os.environ:
        return
    if attempt <= int(inject.get("crash_attempts", 0)):
        os._exit(32)  # simulate a hard worker death (segfault/OOM kill)
    if attempt <= int(inject.get("hang_attempts", 0)):
        time.sleep(float(inject.get("hang_seconds", 3600.0)))
    if attempt <= int(inject.get("fail_attempts", 0)):
        raise RuntimeError(f"injected failure (attempt {attempt})")


def _worker_main(worker_id: int, task_q, result_q, cache_root: str | None):
    """One pool worker: executes one task at a time until poisoned.
    Keeps a process-lifetime PassManager so repeated points of the same
    program share parse + front-end analyses even on cache misses."""
    os.environ[_WORKER_ENV] = str(worker_id)
    cache = CompileCache(cache_root) if cache_root else None
    manager = PassManager()
    memo: dict = {}
    while True:
        task = task_q.get()
        if task is None:
            return
        index, attempt, job = task
        try:
            _apply_injection(job, attempt)
            result = execute_job(job, manager=manager, cache=cache, memo=memo)
        except Exception:
            result = SweepResult(
                label=job.label,
                program=job.program,
                mode=job.mode,
                procs=job.procs,
                options=job.options,
                ok=False,
                error=traceback.format_exc(),
            )
        result_q.put((index, attempt, result))


# ---------------------------------------------------------------------------
# The supervisor
# ---------------------------------------------------------------------------


@dataclass
class _Worker:
    id: int
    proc: multiprocessing.Process
    task_q: object
    result_q: object
    #: (job index, attempt, deadline or None) while busy
    current: tuple[int, int, float | None] | None = None


class _Supervisor:
    def __init__(
        self,
        jobs: Sequence[SweepJob],
        *,
        workers: int,
        timeout: float | None,
        retries: int,
        backoff: float,
        cache: CompileCache | None,
        tracer: Tracer,
        metrics: Metrics | None,
        on_result: Callable[[SweepResult], None] | None,
    ):
        self.jobs = jobs
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.cache = cache
        self.tracer = tracer
        self.metrics = metrics
        self.on_result = on_result
        self.results: dict[int, SweepResult] = {}
        #: (job index, attempt, earliest dispatch time)
        self.pending: deque[tuple[int, int, float]] = deque(
            (index, 1, 0.0) for index in range(len(jobs))
        )
        self.ctx = multiprocessing.get_context()
        self.workers: list[_Worker] = []
        self.target_workers = workers
        self.next_worker_id = 0
        self.fallback_manager: PassManager | None = None
        self.fallback_memo: dict = {}

    # -- worker lifecycle --------------------------------------------------

    def _spawn_worker(self) -> _Worker | None:
        try:
            task_q = self.ctx.Queue()
            result_q = self.ctx.Queue()
            worker_id = self.next_worker_id
            self.next_worker_id += 1
            proc = self.ctx.Process(
                target=_worker_main,
                args=(
                    worker_id,
                    task_q,
                    result_q,
                    str(self.cache.root) if self.cache else None,
                ),
                daemon=True,
                name=f"repro-sweep-{worker_id}",
            )
            proc.start()
        except Exception:
            return None
        worker = _Worker(id=worker_id, proc=proc, task_q=task_q, result_q=result_q)
        self.workers.append(worker)
        return worker

    def _discard_worker(self, worker: _Worker, *, kill: bool) -> None:
        self.workers.remove(worker)
        if kill and worker.proc.is_alive():
            worker.proc.terminate()
            worker.proc.join(timeout=1.0)
            if worker.proc.is_alive():  # pragma: no cover - stubborn child
                worker.proc.kill()
                worker.proc.join(timeout=1.0)
        else:
            worker.proc.join(timeout=1.0)
        # the queues die with the worker: a process killed mid-put may
        # leave its own queue locked, so nothing shared is reused

    def _shutdown(self) -> None:
        for worker in list(self.workers):
            try:
                worker.task_q.put_nowait(None)
            except Exception:
                pass
        deadline = time.monotonic() + 2.0
        for worker in list(self.workers):
            worker.proc.join(timeout=max(0.0, deadline - time.monotonic()))
            if worker.proc.is_alive():
                worker.proc.terminate()
                worker.proc.join(timeout=1.0)

    # -- bookkeeping -------------------------------------------------------

    def _inc(self, name: str, amount: float = 1) -> None:
        if self.metrics is not None:
            self.metrics.inc(name, amount)

    def _record(self, index: int, attempt: int, result: SweepResult) -> None:
        result.attempts = attempt
        self.results[index] = result
        self._inc("sweep.jobs_ok" if result.ok else "sweep.jobs_failed")
        if result.cache_hit:
            self._inc("sweep.cache_hits")
        if result.compile_dedup:
            self._inc("sweep.compile_dedup")
        self.tracer.instant(
            "sweep.job",
            cat="sweep",
            label=result.label,
            ok=result.ok,
            attempts=attempt,
            worker=result.worker,
            cache_hit=result.cache_hit,
            duration_s=round(result.duration_s, 6),
        )
        if self.on_result is not None:
            self.on_result(result)

    def _serial_fallback(self, index: int, attempt: int, reason: str) -> None:
        """The pool failed this job ``retries + 1`` times: run it here,
        in-process, so the grid point is never lost."""
        self._inc("sweep.serial_fallbacks")
        if self.fallback_manager is None:
            self.fallback_manager = PassManager()
        job = self.jobs[index]
        result = execute_job(
            job,
            manager=self.fallback_manager,
            cache=self.cache,
            memo=self.fallback_memo,
        )
        result.worker = "serial-fallback"
        if not result.ok and result.error is not None:
            result.error = f"{reason}; serial fallback also failed:\n{result.error}"
        self._record(index, attempt, result)

    def _requeue(self, index: int, attempt: int, reason: str) -> None:
        if attempt > self.retries:
            self._serial_fallback(index, attempt, reason)
            return
        self._inc("sweep.retries")
        delay = self.backoff * (2 ** (attempt - 1))
        self.pending.append((index, attempt + 1, time.monotonic() + delay))

    # -- the loop ----------------------------------------------------------

    def run(self) -> list[SweepResult]:
        total = len(self.jobs)
        try:
            while len(self.results) < total:
                progressed = self._drain_results()
                progressed |= self._reap_failures()
                progressed |= self._dispatch()
                if len(self.results) >= total:
                    break
                if not self.workers and self.pending:
                    # the pool cannot be (re)built: degrade fully
                    while self.pending:
                        index, attempt, _ = self.pending.popleft()
                        self._serial_fallback(
                            index, attempt, "worker pool unavailable"
                        )
                    break
                if not progressed:
                    # short poll: warm (cache-hit) jobs complete in
                    # single-digit milliseconds, so a coarse sleep here
                    # would dominate the whole sweep's wall clock
                    time.sleep(0.001)
        finally:
            self._shutdown()
        return [self.results[index] for index in range(total)]

    def _drain_results(self) -> bool:
        progressed = False
        for worker in list(self.workers):
            while True:
                try:
                    index, attempt, result = worker.result_q.get_nowait()
                except (queue_mod.Empty, OSError, EOFError):
                    break
                result.worker = f"worker-{worker.id}"
                worker.current = None
                self._record(index, attempt, result)
                progressed = True
        return progressed

    def _reap_failures(self) -> bool:
        progressed = False
        now = time.monotonic()
        for worker in list(self.workers):
            if worker.current is None:
                if not worker.proc.is_alive():
                    # idle worker died (startup failure): just drop it
                    self._discard_worker(worker, kill=False)
                    progressed = True
                continue
            index, attempt, deadline = worker.current
            if not worker.proc.is_alive():
                self._inc("sweep.worker_crashes")
                self._discard_worker(worker, kill=False)
                self._requeue(index, attempt, "worker crashed")
                progressed = True
            elif deadline is not None and now > deadline:
                self._inc("sweep.timeouts")
                self._discard_worker(worker, kill=True)
                self._requeue(
                    index, attempt, f"timed out after {self.timeout}s"
                )
                progressed = True
        return progressed

    def _dispatch(self) -> bool:
        progressed = False
        now = time.monotonic()
        remaining = len(self.jobs) - len(self.results)
        busy = sum(1 for w in self.workers if w.current is not None)
        while (
            len(self.workers) < min(self.target_workers, remaining)
            and len(self.workers) - busy == 0
            and self.pending
        ):
            if self._spawn_worker() is None:
                break
        for worker in self.workers:
            if worker.current is not None or not self.pending:
                continue
            index, attempt, ready = self.pending[0]
            if ready > now:
                continue
            self.pending.popleft()
            deadline = now + self.timeout if self.timeout else None
            try:
                worker.task_q.put((index, attempt, self.jobs[index]))
            except Exception:
                self._discard_worker(worker, kill=True)
                self._requeue(index, attempt, "task dispatch failed")
                continue
            worker.current = (index, attempt, deadline)
            progressed = True
        return progressed


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _run_job_list(
    jobs: Sequence[SweepJob],
    *,
    workers: int,
    timeout: float | None,
    retries: int,
    backoff: float,
    cache: CompileCache | None,
    manager: PassManager | None,
    tracer: Tracer,
    metrics: Metrics | None,
    on_result: Callable[[SweepResult], None] | None,
) -> list[SweepResult]:
    """The per-job execution paths (serial in-process, or the
    supervised pool), shared by the pool mode and the batched mode's
    non-batchable remainder."""
    if workers <= 1 or len(jobs) == 1:
        shared = manager or PassManager(tracer=tracer)
        memo: dict = {}
        results = []
        for job in jobs:
            with tracer.span("sweep.job", cat="sweep", label=job.label):
                result = execute_job(
                    job, manager=shared, cache=cache, memo=memo
                )
            if metrics is not None:
                metrics.inc(
                    "sweep.jobs_ok" if result.ok else "sweep.jobs_failed"
                )
                if result.cache_hit:
                    metrics.inc("sweep.cache_hits")
                if result.compile_dedup:
                    metrics.inc("sweep.compile_dedup")
            if on_result is not None:
                on_result(result)
            results.append(result)
        return results
    supervisor = _Supervisor(
        jobs,
        workers=workers,
        timeout=timeout,
        retries=retries,
        backoff=backoff,
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
    timeout: float | None = None,
    retries: int = 2,
    backoff: float = 0.1,
    cache: CompileCache | str | os.PathLike | bool | None = None,
    manager: PassManager | None = None,
    tracer: Tracer | None = None,
    metrics: Metrics | None = None,
    on_result: Callable[[SweepResult], None] | None = None,
    mode: str = "auto",
) -> list[SweepResult]:
    """Execute a sweep, returning one result per job in job order.

    ``workers``: None picks ``min(cpu_count, job count)``; 0 or 1
    forces in-process serial execution (sharing ``manager`` across
    points, so front-end analyses are reused like the table builders
    always did).  ``timeout`` is per job, in seconds; ``retries``
    bounds how often a crashed or timed-out job is redispatched
    (with ``backoff * 2**attempt`` delays) before the supervisor runs
    it serially itself.  ``cache`` enables the persistent compile
    cache (path, True for the default root, or a
    :class:`CompileCache`).

    ``mode`` picks the execution strategy: ``"pool"`` runs every job
    through the per-job paths above; ``"batched"`` routes
    simulate/estimate points through the vectorized batch evaluator
    (:mod:`repro.sweep.batched`) — points differing only in machine
    parameters share one simulation, points differing only in the
    processor count fuse into procs sub-groups of one batch (sharing
    compiles where the resolved grid agrees, and one fused procs-lane
    extraction/estimate), repeated compiles dedupe — with everything
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
                    on_result=on_result,
                )
            )
        if leftover:
            rest_results = _run_job_list(
                [jobs[i] for i in leftover],
                workers=min(workers, len(leftover)),
                timeout=timeout,
                retries=retries,
                backoff=backoff,
                cache=disk_cache,
                manager=manager,
                tracer=tracer,
                metrics=metrics,
                on_result=on_result,
            )
            merged.update(zip(leftover, rest_results))
        results = [merged[i] for i in range(len(jobs))]

    if metrics is not None and disk_cache is not None:
        for name, value in disk_cache.stats.as_dict().items():
            metrics.gauge(f"sweep.disk_cache.{name}", value)
    return results
