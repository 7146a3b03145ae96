"""The persistent sweep service: submit grids, harvest results, keep
the warm cache shared.

A *service directory* holds everything durable::

    <root>/queue.sqlite    the job queue (jobs, points, shards, events)
    <root>/catalog.sqlite  the artifact catalog (compiles, results)
    <root>/cache/          the content-addressed compile cache

Clients submit through :meth:`SweepService.submit` (or
``Session.submit`` / ``repro jobs submit``) and get a
:class:`JobHandle` — ``poll()`` for status, ``result()`` to block for
the ordered :class:`~repro.sweep.spec.SweepResult` list,
``stream_events()`` to tail progress.  Work happens wherever someone
runs the worker loop: ``repro serve`` (or
:meth:`SweepService.serve_forever`) claims one shard at a time,
serves points the catalog has already measured as *reuses*, evaluates
the rest through :func:`repro.service.worker.run_sweep` (inline, or on
a pool of ``backend="pool:N"`` workers), and commits every point to
queue + catalog as it lands.

The queue is the one fault-tolerance layer.  Kill the serving process
at any moment: completed points are durable, the lease expires (or
the dead pid is detected), and the next worker resumes exactly the
pending points.  A pool worker that dies forfeits only its point: the
service commits nothing for it and releases the shard, so the next
claim re-evaluates just the uncommitted points.  Either way canonical
stats stay byte-identical to an uninterrupted ``Session.sweep`` of the
same grid, and a shard that keeps killing its evaluator fails its job
after :data:`~repro.service.queue.MAX_SHARD_ATTEMPTS` claims.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Iterator

from ..core.diskcache import as_compile_cache, default_cache_dir
from ..core.passes import PassManager
from ..obs import NULL_TRACER
from ..sweep.engine import EXEC_MODES
from ..sweep.spec import SweepJob, SweepResult, SweepSpec
from .catalog import Catalog, point_key
from .queue import Claim, Event, JobQueue, JobStatus, make_owner
from . import worker
from .worker import shard_jobs

if TYPE_CHECKING:
    from ..obs import Metrics, Tracer

#: test-only failure injection (the crash-recovery suites and the CI
#: service gate): when set, the serving process hard-exits —
#: ``os._exit(32)``, simulating a kill -9 / OOM — after committing
#: this many points, so recovery must resume from the queue alone
KILL_AFTER_ENV = "_REPRO_SERVICE_EXIT_AFTER_POINTS"

#: exit code of an injected service death
KILLED_EXIT_CODE = 32

#: named backends (``repro serve --backend``); ``"pool:N"`` sizes the pool
BACKENDS = ("inline", "pool")


def _backend_workers(backend: str | None) -> int:
    """The worker count a backend name stands for: None/``"inline"``
    → 0 (serial in the serving process), ``"pool"``/``"pool:N"`` → a
    pool of 2/N workers, N a positive integer."""
    name, _, arg = (backend or "inline").partition(":")
    if name == "inline" and not arg:
        return 0
    if name == "pool" and not arg:
        return 2
    if name == "pool" and arg.isdecimal() and int(arg) >= 1:
        return int(arg)
    raise ValueError(
        f"unknown worker backend {backend!r}; built in: {BACKENDS} "
        f"('pool:N' sizes the pool)"
    )


def default_service_dir() -> Path:
    """``$REPRO_SERVICE_DIR``, else ``<compile-cache root>/service``."""
    env = os.environ.get("REPRO_SERVICE_DIR")
    if env:
        return Path(env).expanduser()
    return default_cache_dir() / "service"


class JobFailed(RuntimeError):
    """``JobHandle.result()`` on a failed or cancelled job."""


@dataclass
class JobHandle:
    """A client's view of one submitted job."""

    job_id: int
    service: "SweepService"

    def poll(self) -> JobStatus:
        """The job's current state and progress counters."""
        return self.service.queue.status(self.job_id)

    def result(
        self, *, timeout: float | None = None, poll: float = 0.05
    ) -> list[SweepResult]:
        """Block until the job is terminal and return its results in
        grid order.  Raises :class:`TimeoutError` after ``timeout``
        seconds, :class:`JobFailed` on a failed or cancelled job."""
        deadline = time.monotonic() + timeout if timeout is not None else None
        while True:
            status = self.poll()
            if status.terminal:
                break
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError(
                    f"job {self.job_id} still {status.state} "
                    f"({status.done}/{status.n_points} points) after "
                    f"{timeout}s"
                )
            time.sleep(poll)
        if status.state != "done":
            raise JobFailed(
                f"job {self.job_id} {status.state}"
                + (f": {status.error}" if status.error else "")
            )
        results = self.service.queue.results(self.job_id)
        missing = [i for i, r in enumerate(results) if r is None]
        if missing:  # pragma: no cover - done implies all points stored
            raise JobFailed(
                f"job {self.job_id} done but points {missing} have no result"
            )
        return results  # type: ignore[return-value]

    def stream_events(
        self,
        *,
        since: int = 0,
        poll: float = 0.05,
        timeout: float | None = None,
    ) -> Iterator[Event]:
        """Yield the job's events as they append, ending after the
        terminal event (done/failed/cancelled).  ``since`` resumes from
        a previously seen sequence number."""
        deadline = time.monotonic() + timeout if timeout is not None else None
        last = since
        while True:
            events = self.service.queue.events_since(self.job_id, last)
            for event in events:
                last = event.seq
                yield event
                if event.kind in ("done", "failed", "cancelled"):
                    return
            if deadline is not None and time.monotonic() > deadline:
                return
            time.sleep(poll)

    def cancel(self) -> bool:
        """Cancel the job (idempotent; False when already terminal)."""
        return self.service.queue.cancel(self.job_id)


class SweepService:
    """Queue + catalog + backend over one service directory.  The same
    class serves both roles: clients construct it to submit/poll,
    worker processes construct it (with their backend of choice) to
    run :meth:`serve_forever`.  ``backend`` is one of :data:`BACKENDS`
    and only sets :attr:`workers`, the evaluation pool size (0: inline
    in this process)."""

    def __init__(
        self,
        root: "str | os.PathLike | None" = None,
        *,
        backend: str | None = None,
        lease_ttl: float = 60.0,
        cache: Any = None,
        tracer: "Tracer | None" = None,
        metrics: "Metrics | None" = None,
        owner: str | None = None,
    ):
        self.workers = _backend_workers(backend)
        self.root = Path(root).expanduser() if root else default_service_dir()
        self.root.mkdir(parents=True, exist_ok=True)
        self.queue = JobQueue(self.root / "queue.sqlite", lease_ttl=lease_ttl)
        self.catalog = Catalog(self.root / "catalog.sqlite")
        self.cache = as_compile_cache(
            cache if cache is not None else self.root / "cache"
        )
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics
        self.manager = PassManager(tracer=tracer)
        self.owner = owner or make_owner()
        self._committed_points = 0

    def close(self) -> None:
        self.queue.close()
        self.catalog.close()

    # -- metrics helpers ---------------------------------------------------

    def _inc(self, name: str, amount: float = 1) -> None:
        if self.metrics is not None:
            self.metrics.inc(name, amount)

    def _update_depth_gauges(self) -> None:
        if self.metrics is None:
            return
        for name, value in self.queue.depth().items():
            self.metrics.gauge(f"service.queue.{name}", value)

    # -- client side -------------------------------------------------------

    def submit(
        self,
        spec: "SweepSpec | Iterable[SweepJob]",
        *,
        name: str = "",
        exec_mode: str = "auto",
        shards: int | None = None,
    ) -> JobHandle:
        """Persist a grid as a durable job; returns immediately with a
        :class:`JobHandle`.  ``exec_mode`` is how each shard will run
        (``auto``/``pool``/``batched``); ``shards`` partitions the
        grid (default: one shard per fusion group)."""
        if exec_mode not in EXEC_MODES:
            raise ValueError(
                f"exec_mode must be one of {EXEC_MODES}, got {exec_mode!r}"
            )
        jobs = list(spec.jobs() if isinstance(spec, SweepSpec) else spec)
        if not jobs:
            raise ValueError("cannot submit an empty grid")
        keys = [point_key(job) for job in jobs]
        assignment = shard_jobs(jobs, shards)
        job_id = self.queue.submit(
            jobs, keys, assignment, name=name, exec_mode=exec_mode
        )
        self._inc("service.jobs_submitted")
        self._inc("service.points_submitted", len(jobs))
        self._update_depth_gauges()
        self.tracer.instant(
            "service.submit",
            cat="service",
            job_id=job_id,
            points=len(jobs),
            shards=len(assignment),
        )
        return JobHandle(job_id=job_id, service=self)

    def handle(self, job_id: int) -> JobHandle:
        """Re-attach to an existing job (any process, any time)."""
        self.queue.status(job_id)  # raises KeyError on unknown id
        return JobHandle(job_id=job_id, service=self)

    # -- worker side -------------------------------------------------------

    def run_next(self) -> bool:
        """Claim and fully process one shard; False when the queue has
        nothing claimable."""
        claim = self.queue.claim(self.owner)
        if claim is None:
            self._update_depth_gauges()
            return False
        self._inc("service.shards_claimed")
        self._execute_claim(claim)
        self._update_depth_gauges()
        return True

    def _execute_claim(self, claim: Claim) -> None:
        with self.tracer.span(
            "service.shard",
            cat="service",
            job_id=claim.job_id,
            shard=claim.shard,
            workers=self.workers,
            pending=len(claim.points),
        ):
            fresh: list[tuple[int, SweepJob]] = []
            for idx, job in claim.points:
                cached = self.catalog.lookup(job)
                if cached is not None:
                    self._commit(claim, idx, job, cached, reused=True)
                else:
                    fresh.append((idx, job))
            crashed = self._evaluate(claim, fresh) if fresh else 0
        if crashed:
            # the crashed points stay pending: the next claim of this
            # shard re-evaluates exactly them
            self.queue.release_shard(
                claim.job_id, claim.shard, self.owner,
                f"{crashed} point(s) lost to a crashed worker",
            )
            return
        if not self.queue.heartbeat(claim.job_id, claim.shard, self.owner):
            # cancelled mid-shard, or the lease was reclaimed: committed
            # points are durable either way; just walk away
            self.queue.release_shard(
                claim.job_id, claim.shard, self.owner, "lease lost"
            )
            return
        self.queue.finish_shard(claim.job_id, claim.shard, self.owner)

    def _evaluate(
        self, claim: Claim, fresh: list[tuple[int, SweepJob]]
    ) -> int:
        """Run the shard's never-measured points, committing each result
        to its grid point as it streams out.  A point whose pool worker
        crashed is not committed; returns how many were."""
        crashed = 0

        def commit(k: int, result: SweepResult) -> None:
            nonlocal crashed
            if result.worker == "crashed":
                crashed += 1
                return
            idx, job = fresh[k]
            self._commit(claim, idx, job, result, reused=False)
            self.queue.heartbeat(claim.job_id, claim.shard, self.owner)

        worker.run_sweep(
            [job for _, job in fresh],
            workers=self.workers,
            mode=claim.exec_mode,
            cache=self.cache,
            manager=self.manager,
            tracer=self.tracer,
            metrics=self.metrics,
            on_point=commit,
        )
        return crashed

    def _commit(
        self,
        claim: Claim,
        idx: int,
        job: SweepJob,
        result: SweepResult,
        *,
        reused: bool,
    ) -> None:
        if not reused:
            self.catalog.record_result(job, result, job_id=claim.job_id)
            self.catalog.record_compile(
                job, self.cache, self.manager.pipeline
            )
        self.queue.complete_point(claim.job_id, idx, result, reused=reused)
        self._inc("service.points_reused" if reused else "service.points_done")
        self.tracer.instant(
            "service.point",
            cat="service",
            job_id=claim.job_id,
            label=result.label,
            ok=result.ok,
            reused=reused,
        )
        self._committed_points += 1
        kill_after = int(os.environ.get(KILL_AFTER_ENV, "0") or "0")
        if kill_after and self._committed_points >= kill_after:
            os._exit(KILLED_EXIT_CODE)

    def serve_forever(
        self,
        *,
        poll: float = 0.2,
        once: bool = False,
        max_shards: int | None = None,
        idle_timeout: float | None = None,
    ) -> int:
        """The worker loop: claim-and-process shards until stopped.
        ``once`` drains the queue and returns when nothing is
        claimable; ``idle_timeout`` returns after that many idle
        seconds; ``max_shards`` bounds the shards processed.  Returns
        the number of shards this call processed."""
        processed = 0
        idle_since: float | None = None
        while True:
            if max_shards is not None and processed >= max_shards:
                return processed
            if self.run_next():
                processed += 1
                idle_since = None
                continue
            if once:
                return processed
            now = time.monotonic()
            idle_since = idle_since if idle_since is not None else now
            if idle_timeout is not None and now - idle_since >= idle_timeout:
                return processed
            time.sleep(poll)
