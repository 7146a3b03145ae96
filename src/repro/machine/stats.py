"""Virtual clocks and traffic statistics of the simulated machine."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..comm.costmodel import MachineModel


def sequential_sum(start, dts: np.ndarray):
    """Left-fold ``start + dts[0] + dts[1] + ...`` with exactly the
    rounding of a sequential ``+=`` loop.

    ``np.ufunc.accumulate`` is specified as strictly sequential
    (``r[i] = op(r[i-1], a[i])``), unlike ``np.sum``/``np.add.reduce``
    whose pairwise summation reassociates; the slab engine relies on
    this to charge a whole iteration slab in one call while staying
    bit-for-bit identical to per-iteration charging.

    Scalar form: ``start`` is a float, ``dts`` a 1-d tape, result a
    float.  Lane form (batched sweeps): ``start`` is a ``(lanes,)``
    vector, ``dts`` a ``(steps, lanes)`` tape, and the fold runs down
    axis 0 — per lane that is the same sequence of scalar additions,
    so each lane is bitwise identical to a scalar fold of its column."""
    if dts.size == 0:
        return start
    if dts.ndim == 1:
        buf = np.empty(dts.size + 1, dtype=np.float64)
        buf[0] = start
        buf[1:] = dts
        return float(np.add.accumulate(buf)[-1])
    buf = np.empty((dts.shape[0] + 1, dts.shape[1]), dtype=np.float64)
    buf[0] = start
    buf[1:] = dts
    return np.add.accumulate(buf, axis=0)[-1]


def sequential_prefix_sum(start, dts: np.ndarray, steps) -> np.ndarray:
    """Per-lane left-fold of a shared ``(max_steps, lanes)`` tape where
    lane ``m`` only folds its first ``steps[m]`` entries.

    This is the procs-lane charging trick: nests whose per-rank trip
    counts are closed-form functions of P produce one shared charge
    tape padded to the *longest* lane; accumulating once sequentially
    and reading lane ``m`` at row ``steps[m]`` yields exactly the value
    a dedicated ``steps[m]``-step scalar fold produces, because zero
    padding after a lane's own steps never enters its prefix.

    ``start`` is a float or ``(lanes,)`` vector, ``dts`` a
    ``(max_steps, lanes)`` tape, ``steps`` a ``(lanes,)`` int vector
    with ``0 <= steps[m] <= max_steps``; returns the ``(lanes,)``
    per-lane fold results."""
    dts = np.asarray(dts, dtype=np.float64)
    if dts.ndim != 2:
        raise ValueError(f"dts must be a (steps, lanes) tape, got {dts.shape}")
    lanes = dts.shape[1]
    steps = np.asarray(steps, dtype=np.int64)
    if steps.shape != (lanes,):
        raise ValueError(
            f"steps must give one count per lane: {steps.shape} vs {lanes}"
        )
    if np.any(steps < 0) or np.any(steps > dts.shape[0]):
        raise ValueError("steps out of range for the tape")
    buf = np.empty((dts.shape[0] + 1, lanes), dtype=np.float64)
    buf[0] = start
    buf[1:] = dts
    acc = np.add.accumulate(buf, axis=0)
    return acc[steps, np.arange(lanes)]


@dataclass
class TrafficStats:
    messages: int = 0
    elements: int = 0
    fetches: int = 0
    unexpected_fetches: int = 0
    broadcasts: int = 0
    reductions: int = 0
    #: (stmt_id, ref_id) -> fetch count, for cross-validation against
    #: the static communication analysis
    per_event_fetches: dict[tuple[int, int], int] = field(default_factory=dict)

    def record_fetch(self, key: tuple[int, int] | None, elements: int = 1) -> None:
        self.fetches += 1
        self.elements += elements
        if key is None:
            self.unexpected_fetches += 1
        else:
            self.per_event_fetches[key] = self.per_event_fetches.get(key, 0) + 1

    def record_fetch_batch(self, key: tuple[int, int] | None, count: int) -> None:
        """Exactly ``count`` single-element ``record_fetch`` calls."""
        if count <= 0:
            return
        self.fetches += count
        self.elements += count
        if key is None:
            self.unexpected_fetches += count
        else:
            self.per_event_fetches[key] = self.per_event_fetches.get(key, 0) + count

    def as_dict(self) -> dict:
        """JSON-serializable snapshot (tuple keys stringified), used by
        the benchmarks to assert fast-path/interpreted identity."""
        return {
            "messages": self.messages,
            "elements": self.elements,
            "fetches": self.fetches,
            "unexpected_fetches": self.unexpected_fetches,
            "broadcasts": self.broadcasts,
            "reductions": self.reductions,
            "per_event_fetches": {
                f"S{sid}/r{rid}": count
                for (sid, rid), count in sorted(self.per_event_fetches.items())
            },
        }


class Clocks:
    """Per-rank virtual time, advanced by compute and message events."""

    def __init__(self, num_ranks: int, machine: MachineModel):
        self.machine = machine
        self.time = [0.0] * num_ranks
        self.compute_time = [0.0] * num_ranks
        self.comm_time = [0.0] * num_ranks

    def charge_compute(self, rank: int, flops: int) -> None:
        dt = self.machine.compute_time(flops, 1)
        self.time[rank] += dt
        self.compute_time[rank] += dt

    def charge_message(self, src: int, dst: int, elements: int) -> None:
        dt = self.machine.message_time(elements)
        start = max(self.time[src], self.time[dst])
        self.time[src] = start + dt
        self.time[dst] = start + dt
        self.comm_time[src] += dt
        self.comm_time[dst] += dt

    def charge_message_amortized(self, src: int, dst: int, elements: int, startup: bool) -> None:
        """Per-element transfer charging with one startup per coalesced
        message (message vectorization at run time)."""
        dt = self.machine.beta * self.machine.element_bytes * elements
        if startup:
            dt += self.machine.alpha
        start = max(self.time[src], self.time[dst])
        self.time[src] = start + dt
        self.time[dst] = start + dt
        self.comm_time[src] += dt
        self.comm_time[dst] += dt

    def charge_compute_tape(self, rank: int, dts: np.ndarray) -> None:
        """Batched compute charging, bit-for-bit identical to calling
        ``charge_compute`` once per tape entry: ``dts`` holds the
        precomputed per-instance ``dt`` values (flops x flop_time +
        statement overhead); 0.0 entries are bitwise no-ops, which is
        how masked-off guarded instances are encoded."""
        if dts.size == 0:
            return
        self.time[rank] = sequential_sum(self.time[rank], dts)
        self.compute_time[rank] = sequential_sum(self.compute_time[rank], dts)

    # -- tape assembly -----------------------------------------------------
    #
    # The slab engine builds charge tapes out of per-statement ``dt``
    # values and feeds them to ``charge_compute_tape``/``sequential_sum``.
    # Routing the numpy assembly through the clock object keeps the tape
    # *shape* a clock concern: the scalar clocks here build 1-d tapes
    # (one entry per statement instance), while the lane-vector clocks
    # of the batched sweep evaluator (``repro.machine.batchexec``) build
    # ``(instances, lanes)`` tapes from per-lane ``dt`` vectors.

    def tape(self, dts: list) -> np.ndarray:
        """A charge tape from a list of per-statement ``dt`` values."""
        return np.asarray(dts, dtype=np.float64)

    def tile(self, tape: np.ndarray, n: int) -> np.ndarray:
        """``tape`` repeated ``n`` times along the instance axis."""
        return np.tile(tape, n)

    def cat(self, parts: list) -> np.ndarray:
        """Tapes concatenated along the instance axis."""
        return np.concatenate(parts) if parts else self.tape([])

    def charge_collective(self, ranks: list[int], elements: int, kind: str) -> None:
        if len(ranks) <= 1:
            return
        if kind == "reduce":
            dt = self.machine.reduce_time(elements, len(ranks))
        else:
            dt = self.machine.broadcast_time(elements, len(ranks))
        start = max(self.time[r] for r in ranks)
        for r in ranks:
            self.time[r] = start + dt
            self.comm_time[r] += dt

    def snapshot(self) -> dict[str, list[float]]:
        """Exact per-rank clock values, for bit-for-bit comparisons."""
        return {
            "time": list(self.time),
            "compute_time": list(self.compute_time),
            "comm_time": list(self.comm_time),
        }

    @property
    def elapsed(self) -> float:
        return max(self.time) if self.time else 0.0

    @property
    def total_compute(self) -> float:
        return sum(self.compute_time)

    @property
    def total_comm(self) -> float:
        return sum(self.comm_time)
