"""Worker backends and fusion-preserving shard planning.

A :class:`WorkerBackend` is how a claimed shard's pending points get
evaluated.  Two ship with the package:

* ``"inline"`` — in-process through :func:`repro.sweep.run_sweep`
  with ``workers=0``: the shard shares the serving process's pass
  manager, and batched/procs-lane fusion applies to the whole shard;
* ``"pool"`` (``"pool:N"`` sizes it) — the supervised process pool:
  batchable groups still evaluate fused in-process, non-batchable
  points fan out over N pool workers with the engine's
  crash/timeout/retry ladder.

Horizontal scale-out does not come from one backend spanning hosts —
it comes from *sharding*: :func:`shard_jobs` partitions a submitted
grid into shards along the batched evaluator's fusion groups (points
that would share one vectorized evaluation stay together), so several
``repro serve`` processes can each lease a shard and the per-shard
evaluation is byte-identical to the direct sweep.  Remote/actor-style
backends implement the same two-method protocol.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Protocol, Sequence, runtime_checkable

from ..sweep.batched import plan_batches
from ..sweep.engine import run_sweep
from ..sweep.spec import SweepJob, SweepResult

if TYPE_CHECKING:
    from ..core.diskcache import CompileCache
    from ..core.passes import PassManager
    from ..obs import Metrics, Tracer


@runtime_checkable
class WorkerBackend(Protocol):
    """The pluggable evaluation strategy of a sweep service worker."""

    #: short tag recorded in spans/events
    name: str

    def run(
        self,
        jobs: Sequence[SweepJob],
        *,
        exec_mode: str = "auto",
        cache: "CompileCache | None" = None,
        manager: "PassManager | None" = None,
        tracer: "Tracer | None" = None,
        metrics: "Metrics | None" = None,
        on_point: Callable[[int, SweepResult], None] | None = None,
    ) -> list[SweepResult]:
        """Evaluate ``jobs`` in order, streaming each finished point
        with its index in ``jobs`` through ``on_point`` (the service
        commits durability there).
        Must never lose a point: failures come back ``ok=False``."""
        ...


@dataclass
class InlineBackend:
    """Serial in-process evaluation on the serving process itself —
    the zero-infrastructure backend (and the most cache-friendly one:
    every shard shares one pass manager and one compile memo)."""

    name: str = "inline"

    def run(self, jobs, *, exec_mode="auto", cache=None, manager=None,
            tracer=None, metrics=None, on_point=None):
        return run_sweep(
            jobs,
            workers=0,
            mode=exec_mode,
            cache=cache,
            manager=manager,
            tracer=tracer,
            metrics=metrics,
            on_point=on_point,
        )


@dataclass
class PoolBackend:
    """The supervised process pool from :mod:`repro.sweep.engine`:
    non-batchable points fan out across ``workers`` child processes
    (timeout kill + respawn, retry with backoff, serial fallback),
    batchable groups evaluate fused in-process as always."""

    workers: int = 2
    timeout: float | None = None
    retries: int = 2
    backoff: float = 0.1
    name: str = field(default="pool", init=False)

    def run(self, jobs, *, exec_mode="auto", cache=None, manager=None,
            tracer=None, metrics=None, on_point=None):
        return run_sweep(
            jobs,
            workers=self.workers,
            timeout=self.timeout,
            retries=self.retries,
            backoff=self.backoff,
            mode=exec_mode,
            cache=cache,
            manager=manager,
            tracer=tracer,
            metrics=metrics,
            on_point=on_point,
        )


#: registry of named backends (``repro serve --backend``)
BACKENDS = ("inline", "pool")


def as_backend(backend: "WorkerBackend | str | None") -> WorkerBackend:
    """Normalize the convenience forms: None/``"inline"`` → inline,
    ``"pool"``/``"pool:N"`` → a pool of default/N workers, an object
    implementing the protocol → itself."""
    if backend is None:
        return InlineBackend()
    if isinstance(backend, str):
        name, _, arg = backend.partition(":")
        if name == "inline":
            return InlineBackend()
        if name == "pool":
            return PoolBackend(workers=int(arg)) if arg else PoolBackend()
        raise ValueError(
            f"unknown worker backend {backend!r}; built in: {BACKENDS} "
            f"(or pass a WorkerBackend instance)"
        )
    if isinstance(backend, WorkerBackend):
        return backend
    raise TypeError(f"not a worker backend: {backend!r}")


def shard_jobs(
    jobs: Sequence[SweepJob], shards: int | None = None
) -> list[list[int]]:
    """Partition grid-point indices into shards without breaking
    fusion groups.

    The units are the batched evaluator's own groups
    (:func:`~repro.sweep.batched.plan_batches`): points that would
    share one lane-vectorized evaluation stay in one shard, so
    within-shard execution fuses exactly like a direct sweep.
    ``shards=None`` keeps one shard per group — maximal lease
    granularity at no fusion cost.  An explicit ``shards=N`` bin-packs
    the groups into N shards (largest group to least-loaded shard);
    when there are fewer groups than shards, the largest groups split
    — each half still fuses internally, only cross-half fusion is
    traded for parallelism."""
    if not jobs:
        return []
    batches, leftover = plan_batches(list(jobs))
    units: list[list[int]] = [list(b.indices) for b in batches]
    units += [[index] for index in leftover]
    units.sort(key=lambda unit: (-len(unit), unit[0]))
    if shards is not None:
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        target = min(shards, len(jobs))
        while len(units) < target:
            units.sort(key=lambda unit: (-len(unit), unit[0]))
            largest = units.pop(0)
            half = len(largest) // 2
            units += [largest[:half], largest[half:]]
        bins: list[list[int]] = [[] for _ in range(target)]
        for unit in sorted(units, key=lambda u: (-len(u), u[0])):
            smallest = min(bins, key=len)
            smallest.extend(unit)
        units = [sorted(b) for b in bins if b]
    else:
        units = [sorted(unit) for unit in units]
    units.sort(key=lambda unit: unit[0])
    return units
