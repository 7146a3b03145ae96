"""Shard evaluation and fusion-preserving shard planning.

:func:`run_sweep` (the engine's entry point, re-exported here so the
service calls it through this module) evaluates a claimed shard's
pending points.  The service's ``backend`` only picks its worker
count (see :class:`~repro.service.service.SweepService`):

* ``"inline"`` (or None) — zero workers: the shard runs serially in
  the serving process, sharing its pass manager, and batched/procs-lane
  fusion applies to the whole shard;
* ``"pool"`` (``"pool:N"`` sizes it) — batchable groups still
  evaluate fused in-process, non-batchable points go one at a time to
  at most N forked pool workers.  A pool worker that dies forfeits its
  one point as a ``worker="crashed"`` failure, which the service does
  not commit.

Horizontal scale-out does not come from one backend spanning hosts —
it comes from *sharding*: :func:`shard_jobs` partitions a submitted
grid into shards along the batched evaluator's fusion groups (points
that would share one vectorized evaluation stay together), so several
``repro serve`` processes can each lease a shard and the per-shard
evaluation is byte-identical to the direct sweep.
"""

from __future__ import annotations

from typing import Sequence

from ..sweep.batched import plan_batches
# the service calls ``worker.run_sweep``
from ..sweep.engine import run_sweep  # noqa: F401
from ..sweep.spec import SweepJob


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
