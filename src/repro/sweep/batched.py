"""The batched sweep fast path: one evaluation per *batch* of points.

A sweep grid typically varies three kinds of axis:

* **machine parameters** (alpha/beta/flop rate ablations) — these
  never influence execution, only the ``dt`` values charged to the
  virtual clocks, so all such points share one instruction stream;
* **processor count** — this changes the compiled program (and hence
  the instruction stream), but the per-procs runs of one program are
  the *same experiment* at different widths: they become *procs
  sub-groups* of one batch, sharing planning, compile dedup, and
  fused procs-lane extraction;
* **other compiler options / measurement mode** — these change the
  experiment itself; compile-mode points never batch at all.

:func:`plan_batches` partitions a job list accordingly: jobs that
simulate (or estimate) the same ``(program, seed,
options-minus-machine-minus-procs)`` point form one *batch*.  Within a
batch, lanes split into procs sub-groups — runs sharing one compiled
program — whose lanes differ only in ``options.machine``.
:func:`run_batched` compiles each sub-group once (procs values that
resolve to the same processor grid share even that compile), evaluates
all its machine lanes in a single lane-vector simulation, adopts every
sub-group's clocks into one batch-wide
:class:`~repro.machine.batchexec.ProcsVectorClocks` laid out over the
widest rank count, and stitches per-lane
:class:`~repro.sweep.spec.SweepResult` records back in grid order —
byte-identical to what a dedicated per-point run would have produced.
Estimate-mode batches whose sub-groups share an estimate signature
collapse further: one :class:`~repro.perf.estimator.PerfEstimator`
pass over a :class:`~repro.machine.batchexec.ProcsVectorMachine`
prices the whole procs × machine grid in a single call.

Jobs that cannot batch (compile-mode points) are returned to the
caller untouched; :func:`repro.sweep.engine.run_sweep` sends them down
the ordinary pool path.  The degrade ladder
never loses a grid point: a sub-group whose compile or vectorized
evaluation fails runs its lanes per-lane in-process, and a fused
extraction that fails degrades to per-sub-group extraction (which is
byte-identical — adoption copies clock columns verbatim).
"""

from __future__ import annotations

import copy
import dataclasses
import time
import traceback
from dataclasses import dataclass
from typing import Callable

from ..core.diskcache import CompileCache, options_signature
from ..core.driver import CompiledProgram, compile_source
from ..core.passes import PassManager
from ..model import SP2
from ..obs import Metrics, Tracer
from .spec import SweepJob, SweepResult

#: job modes the batched evaluator understands
BATCHABLE_MODES = ("simulate", "estimate")


def _active_failure(rung: str) -> str:
    """``"<rung>: <exception summary> at <file:line>"`` for the
    exception currently being handled — the ``fallback_reason`` carried
    on every :class:`SweepResult` a degrade rung touches."""
    import sys

    etype, exc, tb = sys.exc_info()
    summary = traceback.format_exception_only(etype, exc)[-1].strip()
    frames = traceback.extract_tb(tb)
    where = ""
    if frames:
        last = frames[-1]
        where = f" at {last.filename.rsplit('/', 1)[-1]}:{last.lineno}"
    return f"{rung}: {summary}{where}"


# ---------------------------------------------------------------------------
# Planning
# ---------------------------------------------------------------------------


@dataclass
class Batch:
    """One vectorized evaluation unit: jobs of one experiment whose
    lanes differ only in ``options.machine`` and the processor count,
    with their positions in the original job list."""

    indices: list[int]
    jobs: list[SweepJob]

    def __len__(self) -> int:
        return len(self.jobs)

    def subgroups(self) -> list[list[int]]:
        """Lane positions partitioned into procs sub-groups: lanes
        sharing one compiled program (same source, same options up to
        the machine), in first-seen lane order.  Each sub-group is one
        compile + one lane-vector simulation; a single-procs batch has
        exactly one."""
        groups: dict[tuple, list[int]] = {}
        for lane, job in enumerate(self.jobs):
            neutral = dataclasses.replace(job.options, machine=SP2)
            key = (job.source, options_signature(neutral))
            groups.setdefault(key, []).append(lane)
        return list(groups.values())


def batch_key(job: SweepJob) -> tuple:
    """The grouping key: everything that changes the *experiment*.
    Machine parameters are normalized away (they become lanes) and so
    is the processor count (per-procs runs become sub-groups of one
    batch); the options signature is the same canonical closure the
    compile cache keys on.  The program *name* stands in for the source
    because callable program specs re-emit source text per procs value
    — the per-procs sources regroup into sub-groups inside the batch."""
    neutral = dataclasses.replace(job.options, machine=SP2, num_procs=None)
    return (job.program, job.seed, job.mode, options_signature(neutral))


def plan_batches(
    jobs: list[SweepJob],
) -> tuple[list[Batch], list[int]]:
    """Partition ``jobs`` into vectorizable batches and the indices of
    everything else (pool work).  Every job lands in exactly one place;
    batches preserve first-seen grid order."""
    batches: dict[tuple, Batch] = {}
    leftover: list[int] = []
    for index, job in enumerate(jobs):
        if job.mode not in BATCHABLE_MODES:
            leftover.append(index)
            continue
        key = batch_key(job)
        batch = batches.get(key)
        if batch is None:
            batches[key] = Batch(indices=[index], jobs=[job])
        else:
            batch.indices.append(index)
            batch.jobs.append(job)
    return list(batches.values()), leftover


def _sub_batch(batch: Batch, lanes: list[int]) -> Batch:
    """The view of one procs sub-group as a batch of its own."""
    return Batch(
        indices=[batch.indices[i] for i in lanes],
        jobs=[batch.jobs[i] for i in lanes],
    )


# ---------------------------------------------------------------------------
# Compilation (shared with the engine's dedup)
# ---------------------------------------------------------------------------


def compile_with_memo(
    job: SweepJob,
    *,
    manager: PassManager,
    cache: CompileCache | None,
    memo: dict | None,
    grid_memo: dict | None = None,
) -> tuple[CompiledProgram, bool, bool]:
    """Compile ``job`` through the optional in-run memo table and the
    optional persistent cache.  Returns ``(compiled, cache_hit,
    deduped)`` — ``deduped`` means no compile work ran at all.

    ``memo`` keys on the exact ``(source, options signature)``.
    ``grid_memo`` (the batched path) adds a second, *grid-normalized*
    level: ``num_procs`` influences compilation only through the
    resolved processor grid, so a prior compile of the same source
    under the same options-minus-``num_procs`` whose grid matches what
    this job's ``num_procs`` would resolve to is the identical program
    — a P-independent program (PROCESSORS directive pinned) compiles
    once for a whole procs vector."""
    key = (job.source, options_signature(job.options))
    if memo is not None:
        hit = memo.get(key)
        if hit is not None:
            return hit, False, True
    family: dict | None = None
    if grid_memo is not None:
        neutral = dataclasses.replace(job.options, num_procs=None)
        family = grid_memo.setdefault(
            (job.source, options_signature(neutral)), {}
        )
        if family:
            from ..core.context import resolve_grid

            # any prior compile of this family parsed the same source,
            # so its PROCESSORS directive predicts this job's grid
            prior = next(iter(family.values()))
            shape = resolve_grid(
                prior.proc, num_procs=job.options.num_procs
            ).shape
            hit = family.get(shape)
            if hit is not None:
                if memo is not None:
                    memo[key] = hit
                return hit, False, True
    if cache is not None:
        compiled, cache_hit = cache.get_or_compile(
            job.source,
            job.options,
            lambda: compile_source(job.source, job.options, manager=manager),
            pipeline=manager.pipeline,
        )
    else:
        compiled = compile_source(job.source, job.options, manager=manager)
        cache_hit = False
    if memo is not None:
        memo[key] = compiled
    if family is not None:
        family.setdefault(compiled.grid.shape, compiled)
    return compiled, cache_hit, False


# ---------------------------------------------------------------------------
# Vectorized evaluation
# ---------------------------------------------------------------------------


def _simulate_lanes(batch: Batch, compiled: CompiledProgram):
    """One lane-vector simulation of a procs sub-group: every machine
    lane charged in a single tier="auto" run.  Returns the sim; payload
    extraction happens at the batch level (fused across sub-groups)."""
    from ..ir.build import make_inputs
    from ..machine.batchexec import VectorMachine
    from ..machine.simulator import simulate

    machine = VectorMachine([j.options.machine for j in batch.jobs])
    inputs = make_inputs(compiled.proc, batch.jobs[0].seed)
    return simulate(compiled, inputs, machine=machine, tier="auto")


def _simulate_payloads(sim, compiled: CompiledProgram, clocks, lanes) -> list[dict]:
    """Per-lane simulate-mode payloads: the clock-derived fields come
    from lane ``m`` of ``clocks`` (the sub-run's own lane clocks, or
    the batch's fused procs-lane clocks — identical by adoption), the
    rest from the sub-simulation they all share."""
    base = sim.canonical_stats()  # lane-vector "clocks", shared rest
    shared = dict(
        slab_coverage=round(sim.slab_coverage, 6),
        messages=sim.stats.messages,
        fetches=sim.stats.fetches,
        unexpected_fetches=sim.stats.unexpected_fetches,
        grid_size=compiled.grid.size,
    )
    payloads = []
    for lane in lanes:
        stats = {
            "procs": base["procs"],
            "clocks": clocks.lane_snapshot(lane),
            "stats": copy.deepcopy(base["stats"]),
            "tiers": dict(base["tiers"]),
        }
        payloads.append(
            dict(
                shared,
                elapsed=clocks.lane_elapsed(lane),
                canonical_stats=stats,
            )
        )
    return payloads


def _fuse_simulations(groups) -> dict[int, dict]:
    """Fuse-at-extract: adopt every sub-simulation's lane clocks into
    one batch-wide :class:`ProcsVectorClocks` laid out over the widest
    rank count, then extract each batch lane's payload from the fused
    structure.  ``groups`` holds ``(lanes, sub, compiled, sim)`` per
    procs sub-group; returns payloads keyed by batch lane position."""
    from ..machine.batchexec import ProcsVectorClocks, ProcsVectorMachine

    models, procs, shapes = [], [], []
    for lanes, sub, compiled, _sim in groups:
        models.extend(j.options.machine for j in sub.jobs)
        procs.extend([compiled.grid.size] * len(lanes))
        shapes.extend([compiled.grid.shape] * len(lanes))
    fused = ProcsVectorClocks(
        ProcsVectorMachine(models, procs, grid_shapes=shapes)
    )
    payloads: dict[int, dict] = {}
    offset = 0
    for lanes, _sub, compiled, sim in groups:
        fused.adopt(offset, sim.clocks)
        extracted = _simulate_payloads(
            sim, compiled, fused, range(offset, offset + len(lanes))
        )
        payloads.update(zip(lanes, extracted))
        offset += len(lanes)
    return payloads


def _lane_float(value, lane: int) -> float:
    """One lane of a vectorized cost — which stays a plain scalar when
    no machine-dependent term ever touched it (e.g. ``comm_time`` of a
    communication-free program), exactly like the scalar estimator."""
    import numpy as np

    arr = np.asarray(value, dtype=np.float64)
    return float(arr) if arr.ndim == 0 else float(arr[lane])


def _estimate_lanes(batch: Batch, compiled: CompiledProgram) -> list[dict]:
    """One vectorized estimator pass; per-lane estimate payloads."""
    from ..machine.batchexec import VectorMachine
    from ..perf.estimator import PerfEstimator

    machine = VectorMachine([j.options.machine for j in batch.jobs])
    estimate = PerfEstimator(compiled, machine).estimate()
    return [
        dict(
            total_time=_lane_float(estimate.total_time, lane),
            compute_time=_lane_float(estimate.compute_time, lane),
            comm_time=_lane_float(estimate.comm_time, lane),
            grid_size=compiled.grid.size,
        )
        for lane in range(len(batch))
    ]


def _estimate_procs_lanes(groups) -> dict[int, dict]:
    """One procs-lane estimator pass pricing every (procs, machine)
    cell of a batch in a single call.  The caller guarantees the
    sub-groups share an estimate signature, so any one compiled
    program describes the common cost structure; the per-lane grid
    shapes ride on the :class:`ProcsVectorMachine`."""
    from ..machine.batchexec import ProcsVectorMachine
    from ..perf.estimator import PerfEstimator

    models, procs, shapes, order, sizes = [], [], [], [], []
    for lanes, sub, compiled, _sim in groups:
        models.extend(j.options.machine for j in sub.jobs)
        procs.extend([compiled.grid.size] * len(lanes))
        shapes.extend([compiled.grid.shape] * len(lanes))
        sizes.extend([compiled.grid.size] * len(lanes))
        order.extend(lanes)
    machine = ProcsVectorMachine(models, procs, grid_shapes=shapes)
    estimate = PerfEstimator(groups[0][2], machine).estimate()
    payloads: dict[int, dict] = {}
    for fused_lane, batch_lane in enumerate(order):
        payloads[batch_lane] = dict(
            total_time=_lane_float(estimate.total_time, fused_lane),
            compute_time=_lane_float(estimate.compute_time, fused_lane),
            comm_time=_lane_float(estimate.comm_time, fused_lane),
            grid_size=sizes[fused_lane],
        )
    return payloads


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


def run_batched(
    batches: list[Batch],
    *,
    manager: PassManager,
    cache: CompileCache | None,
    memo: dict | None,
    tracer: Tracer,
    metrics: Metrics | None,
    on_result: Callable[[int, SweepResult], None] | None = None,
) -> dict[int, SweepResult]:
    """Evaluate every batch, returning results keyed by original job
    index (``on_result`` gets each with that index as it lands).  A
    procs sub-group whose compile or vectorized evaluation raises falls
    back to per-lane in-process execution; nothing is ever dropped."""
    from .engine import execute_job

    def _inc(name: str, amount: float = 1) -> None:
        if metrics is not None:
            metrics.inc(name, amount)

    results: dict[int, SweepResult] = {}
    #: grid-normalized compile memo (see :func:`compile_with_memo`),
    #: scoped to this run like the exact-signature memo
    grid_memo: dict = {}

    def _emit(index: int, result: SweepResult) -> None:
        results[index] = result
        _inc("sweep.jobs_ok" if result.ok else "sweep.jobs_failed")
        if result.cache_hit:
            _inc("sweep.cache_hits")
        if result.compile_dedup:
            _inc("sweep.compile_dedup")
        if on_result is not None:
            on_result(index, result)

    def _fall_back(sub: Batch, rung: str) -> None:
        """A rung of the degrade ladder: run each of the sub-batch's
        lanes the ordinary scalar way, in-process (the fast path may
        lose speed, never a point).  Every result carries why its batch evaluation failed
        (``fallback_reason``), and the per-rung lane counter makes
        silent degradation visible in metrics."""
        reason = _active_failure(rung)
        _inc("sweep.batched_fallbacks")
        _inc(f"sweep.lane_fallback[reason={rung}]", len(sub.jobs))
        tracer.instant(
            "sweep.batch_fallback",
            cat="sweep",
            label=sub.jobs[0].label,
            rung=rung,
            error=traceback.format_exc(limit=1),
        )
        for index, job in zip(sub.indices, sub.jobs):
            result = execute_job(job, manager=manager, cache=cache, memo=memo)
            result.worker = "batched-fallback"
            result.fallback_reason = reason
            _emit(index, result)

    for batch in batches:
        groups = batch.subgroups()
        with tracer.span(
            "sweep.batch",
            cat="sweep",
            label=batch.jobs[0].label,
            lanes=len(batch),
            procs_groups=len(groups),
        ):
            started = time.perf_counter()
            #: batch lane -> measurement payload / (cache_hit, dedup)
            payloads: dict[int, dict] = {}
            flags: dict[int, tuple[bool, bool]] = {}
            #: batch lane -> why a degrade rung touched it (the lanes
            #: stayed batched but not on the rung first attempted)
            reasons: dict[int, str] = {}
            try:
                evaluated = []  # (lanes, sub, compiled, sim|None)
                for lanes in groups:
                    sub = _sub_batch(batch, lanes)
                    try:
                        compiled, cache_hit, deduped = compile_with_memo(
                            sub.jobs[0],
                            manager=manager,
                            cache=cache,
                            memo=memo,
                            grid_memo=grid_memo,
                        )
                        sim = (
                            _simulate_lanes(sub, compiled)
                            if sub.jobs[0].mode == "simulate"
                            else None
                        )
                    except Exception:
                        _fall_back(sub, "lane-eval")
                        continue
                    evaluated.append((lanes, sub, compiled, sim))
                    for pos, lane in enumerate(lanes):
                        flags[lane] = (
                            cache_hit and pos == 0,
                            deduped or pos > 0,
                        )
                if evaluated and batch.jobs[0].mode == "simulate":
                    try:
                        payloads = _fuse_simulations(evaluated)
                    except Exception:
                        # byte-identical either way: adoption copies
                        # columns, so per-sub-group extraction is a
                        # safe rung below the fused one
                        reason = _active_failure("fuse")
                        payloads = {}
                        for lanes, _sub, compiled, sim in evaluated:
                            extracted = _simulate_payloads(
                                sim, compiled, sim.clocks, range(len(lanes))
                            )
                            payloads.update(zip(lanes, extracted))
                            reasons.update((lane, reason) for lane in lanes)
                        _inc(
                            "sweep.lane_fallback[reason=fuse]",
                            len(reasons),
                        )
                elif evaluated:
                    payloads = _try_estimates(
                        evaluated, flags, _fall_back, reasons, _inc
                    )
            except Exception:
                # last-resort rung: planning/extraction bugs degrade
                # whatever has not been emitted yet to per-lane runs
                pending = [
                    i
                    for i in range(len(batch))
                    if batch.indices[i] not in results
                ]
                if pending:
                    _fall_back(_sub_batch(batch, pending), "batch")
                continue
            # the batch's wall clock, amortized over its lanes
            per_lane = (time.perf_counter() - started) / len(batch)
            if payloads:
                _inc("sweep.batched_groups")
                _inc("sweep.batched_lanes", len(payloads))
                if len(groups) > 1:
                    _inc("sweep.procs_fused", len(payloads))
            for lane, (index, job) in enumerate(
                zip(batch.indices, batch.jobs)
            ):
                if lane not in payloads:
                    continue  # emitted by a fallback rung
                cache_hit, deduped = flags.get(lane, (False, False))
                result = SweepResult(
                    label=job.label,
                    program=job.program,
                    mode=job.mode,
                    procs=job.procs,
                    options=job.options,
                    worker="batched",
                    cache_hit=cache_hit,
                    compile_dedup=deduped,
                    duration_s=per_lane,
                    procs_lanes=len(groups),
                    fallback_reason=reasons.get(lane),
                )
                for name, value in payloads[lane].items():
                    setattr(result, name, value)
                _emit(index, result)
    return results


def _try_estimates(evaluated, flags, fall_back, reasons, inc) -> dict[int, dict]:
    """The estimate-mode ladder: one fused procs-lane estimator call
    when every sub-group shares an estimate signature, per-sub-group
    vectorized estimates otherwise (or when fusing fails), per-lane
    fallback for a sub-group whose estimator itself raises.  Degrades
    record why: ``reasons`` (batch lane -> reason) feeds the
    ``fallback_reason`` of results that stayed batched on a lower rung,
    and each rung bumps its ``sweep.lane_fallback[reason=...]`` lanes."""
    if len(evaluated) > 1:
        from ..perf.estimator import estimate_signature

        try:
            signatures = {
                estimate_signature(compiled)
                for _lanes, _sub, compiled, _sim in evaluated
            }
            if len(signatures) == 1:
                return _estimate_procs_lanes(evaluated)
        except Exception:
            # fall through to per-sub-group estimates
            reason = _active_failure("estimate-fuse")
            affected = [
                lane for lanes, _sub, _c, _s in evaluated for lane in lanes
            ]
            reasons.update((lane, reason) for lane in affected)
            inc("sweep.lane_fallback[reason=estimate-fuse]", len(affected))
    payloads: dict[int, dict] = {}
    for lanes, sub, compiled, _sim in evaluated:
        try:
            extracted = _estimate_lanes(sub, compiled)
        except Exception:
            for lane in lanes:
                flags.pop(lane, None)
                reasons.pop(lane, None)
            fall_back(sub, "estimate")
            continue
        payloads.update(zip(lanes, extracted))
    return payloads
