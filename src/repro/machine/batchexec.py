"""Lane-vectorized charging: one simulation, many machine models.

The batched sweep evaluator (:mod:`repro.sweep.batched`) exploits a
structural fact of the simulator: machine parameters are *write-only*
during a run.  Values, validity masks, control flow, fetch schedules,
and tier decisions never read the clocks, so two grid points that
differ only in simulator parameters (alpha/beta/flop rate) execute the
exact same instruction stream — only the ``dt`` values charged to the
virtual clocks differ.

This module makes those ``dt`` values *vectors*.  A
:class:`VectorMachine` stacks ``lanes`` scalar
:class:`~repro.model.MachineModel` parameter sets into ``(lanes,)``
arrays and evaluates the same closed-form charge expressions
(``alpha + beta*bytes*elements``, log-tree collectives, ``flops x
flop_time``) elementwise; a :class:`VectorClocks` holds per-rank
``(lanes,)`` clock vectors and applies every charge with the same
operation sequence as the scalar :class:`~repro.machine.stats.Clocks`.

Bitwise parity is by construction: IEEE-754 elementwise numpy ops in
an identical order produce, per lane, exactly the doubles the scalar
run produces (``np.add.accumulate`` is strictly sequential down the
instance axis; ``np.maximum`` agrees with ``max`` on non-NaN floats;
machine-independent quantities — trip counts, spans, element counts —
stay python scalars so no transcendental is re-evaluated in numpy).
The parity property suite byte-compares every lane against a dedicated
scalar simulation.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ..model import MachineModel
from .stats import Clocks


class VectorMachine:
    """``lanes`` machine models evaluated elementwise.

    Presents the :class:`~repro.model.MachineModel` interface with
    every scalar parameter replaced by a ``(lanes,)`` float64 vector;
    each cost method returns the ``(lanes,)`` vector of per-model
    costs, computed with the same arithmetic (same operation order,
    same int->float conversions) as the scalar model, so lane ``m`` is
    bitwise equal to ``models[m]``'s answer.
    """

    def __init__(self, models: Sequence[MachineModel]):
        if not models:
            raise ValueError("VectorMachine needs at least one lane")
        self.models = tuple(models)
        self.lanes = len(self.models)
        self.name = f"vector[{','.join(m.name for m in self.models)}]"
        self.alpha = np.asarray([m.alpha for m in models], dtype=np.float64)
        self.beta = np.asarray([m.beta for m in models], dtype=np.float64)
        self.flop_time = np.asarray(
            [m.flop_time for m in models], dtype=np.float64
        )
        self.stmt_overhead = np.asarray(
            [m.stmt_overhead for m in models], dtype=np.float64
        )
        #: per-lane when the models disagree, scalar int otherwise (the
        #: common case; keeps ``beta * element_bytes`` an exact int
        #: scaling either way)
        sizes = {m.element_bytes for m in models}
        self.element_bytes = (
            models[0].element_bytes
            if len(sizes) == 1
            else np.asarray(
                [m.element_bytes for m in models], dtype=np.float64
            )
        )

    # -- point-to-point ----------------------------------------------------

    def message_time(self, elements: int) -> np.ndarray:
        return self.alpha + self.beta * self.element_bytes * max(elements, 0)

    # -- collectives -------------------------------------------------------
    #
    # ``procs`` may be a scalar int (every lane prices the same span — the
    # machine-lane sweep case) or a ``(lanes,)`` int vector (each lane has
    # its own processor count — the procs-lane estimate).  Per-lane
    # round counts are computed with the *scalar* ``math`` path per entry
    # so each lane is bitwise identical to its dedicated scalar model;
    # lanes with ``procs <= 1`` are masked to the scalar early-return
    # value with ``np.where``.

    @staticmethod
    def _rounds(procs):
        if np.ndim(procs) == 0:
            return max(1, math.ceil(math.log2(max(procs, 2))))
        return np.asarray(
            [
                max(1, math.ceil(math.log2(max(int(p), 2))))
                for p in np.asarray(procs).ravel()
            ],
            dtype=np.int64,
        )

    def broadcast_time(self, elements: int, procs) -> np.ndarray:
        if np.ndim(procs) == 0:
            if procs <= 1:
                return np.zeros(self.lanes, dtype=np.float64)
            return self._rounds(procs) * self.message_time(elements)
        charged = self._rounds(procs) * self.message_time(elements)
        return np.where(np.asarray(procs) <= 1, 0.0, charged)

    def reduce_time(self, elements: int, procs) -> np.ndarray:
        if np.ndim(procs) == 0:
            if procs <= 1:
                return np.zeros(self.lanes, dtype=np.float64)
            return self._rounds(procs) * self.message_time(elements)
        charged = self._rounds(procs) * self.message_time(elements)
        return np.where(np.asarray(procs) <= 1, 0.0, charged)

    def shift_time(self, elements: int) -> np.ndarray:
        return self.message_time(elements)

    def gather_time(self, elements: int, procs) -> np.ndarray:
        if np.ndim(procs) == 0:
            if procs <= 1:
                return self.message_time(elements)
            return 2 * self._rounds(procs) * self.message_time(elements)
        charged = 2 * self._rounds(procs) * self.message_time(elements)
        return np.where(
            np.asarray(procs) <= 1, self.message_time(elements), charged
        )

    def alltoall_time(self, elements: int, procs) -> np.ndarray:
        if np.ndim(procs) == 0:
            if procs <= 1:
                return np.zeros(self.lanes, dtype=np.float64)
            per_proc = max(elements // procs, 1)
            return (procs - 1) * self.alpha + (
                2 * self.beta * self.element_bytes * per_proc
            )
        procs = np.asarray(procs)
        per_proc = np.maximum(elements // np.maximum(procs, 1), 1)
        charged = (procs - 1) * self.alpha + (
            2 * self.beta * self.element_bytes * per_proc
        )
        return np.where(procs <= 1, 0.0, charged)

    def transfer_time(self, pattern, elements: int, span_procs):
        if pattern.kind == "none":
            return np.zeros(self.lanes, dtype=np.float64)
        if pattern.kind == "shift":
            return self.shift_time(elements)
        if pattern.kind == "broadcast":
            return self.broadcast_time(elements, span_procs)
        return self.gather_time(elements, span_procs)

    # -- computation -------------------------------------------------------

    def compute_time(self, flops: int, instances: int = 1) -> np.ndarray:
        return instances * (flops * self.flop_time + self.stmt_overhead)


class VectorClocks(Clocks):
    """Per-rank ``(lanes,)`` clock vectors driven by a
    :class:`VectorMachine`.

    Every charge method repeats the scalar :class:`Clocks` operation
    sequence with elementwise array arithmetic; rank entries are always
    *distinct* arrays (a shared object would couple ranks through
    in-place ``+=`` charging, which the scalar float semantics never
    do).  Tape assembly builds ``(instances, lanes)`` tapes so
    ``sequential_sum`` left-folds down the instance axis per lane.
    """

    def __init__(self, num_ranks: int, machine: VectorMachine):
        super().__init__(num_ranks, machine)
        self.lanes = machine.lanes
        zeros = lambda: np.zeros(machine.lanes, dtype=np.float64)  # noqa: E731
        self.time = [zeros() for _ in range(num_ranks)]
        self.compute_time = [zeros() for _ in range(num_ranks)]
        self.comm_time = [zeros() for _ in range(num_ranks)]

    # -- charging ----------------------------------------------------------

    def charge_message(self, src: int, dst: int, elements: int) -> None:
        dt = self.machine.message_time(elements)
        start = np.maximum(self.time[src], self.time[dst])
        self.time[src] = start + dt
        self.time[dst] = start + dt
        self.comm_time[src] += dt
        self.comm_time[dst] += dt

    def charge_message_amortized(
        self, src: int, dst: int, elements: int, startup: bool
    ) -> None:
        dt = self.machine.beta * self.machine.element_bytes * elements
        if startup:
            dt = dt + self.machine.alpha
        start = np.maximum(self.time[src], self.time[dst])
        self.time[src] = start + dt
        self.time[dst] = start + dt
        self.comm_time[src] += dt
        self.comm_time[dst] += dt

    def charge_collective(
        self, ranks: list, elements: int, kind: str
    ) -> None:
        if len(ranks) <= 1:
            return
        if kind == "reduce":
            dt = self.machine.reduce_time(elements, len(ranks))
        else:
            dt = self.machine.broadcast_time(elements, len(ranks))
        start = self.time[ranks[0]]
        for r in ranks[1:]:
            start = np.maximum(start, self.time[r])
        for r in ranks:
            self.time[r] = start + dt
            self.comm_time[r] += dt

    # -- tape assembly -----------------------------------------------------

    def tape(self, dts: list) -> np.ndarray:
        if not dts:
            return np.empty((0, self.lanes), dtype=np.float64)
        return np.asarray(dts, dtype=np.float64).reshape(len(dts), self.lanes)

    def tile(self, tape: np.ndarray, n: int) -> np.ndarray:
        return np.tile(tape, (n, 1))

    def cat(self, parts: list) -> np.ndarray:
        return np.concatenate(parts, axis=0) if parts else self.tape([])

    # -- extraction --------------------------------------------------------

    def lane_snapshot(self, lane: int) -> dict[str, list[float]]:
        """The scalar ``Clocks.snapshot()`` of one lane: plain python
        floats (``float(np.float64)`` is exact), ready for the
        canonical-stats JSON byte comparison."""
        return {
            "time": [float(t[lane]) for t in self.time],
            "compute_time": [float(t[lane]) for t in self.compute_time],
            "comm_time": [float(t[lane]) for t in self.comm_time],
        }

    def lane_elapsed(self, lane: int) -> float:
        """``max(time)`` of one lane, exactly as the scalar property."""
        times = [float(t[lane]) for t in self.time]
        return max(times) if times else 0.0

    @property
    def elapsed(self):
        """The ``(lanes,)`` vector of per-lane makespans."""
        if not self.time:
            return np.zeros(self.lanes, dtype=np.float64)
        out = self.time[0]
        for t in self.time[1:]:
            out = np.maximum(out, t)
        return out


class ProcsVectorMachine(VectorMachine):
    """Machine lanes that additionally carry a per-lane processor count.

    Lane ``m`` prices costs for ``models[m]`` running on ``procs[m]``
    ranks arranged as ``grid_shapes[m]``.  Its one consumer is the
    estimator's procs-vector pricing: :class:`~repro.perf.estimator.
    PerfEstimator` reads ``grid_shapes`` and turns every grid-dependent
    quantity into a ``(lanes,)`` vector, so one ``estimate()`` call
    prices a whole batch of (procs, machine) cells.  The collective
    methods inherited from :class:`VectorMachine` already accept a
    per-lane ``procs`` vector.  Simulation never runs on this machine:
    each procs value is simulated at its own rank count.
    """

    def __init__(
        self,
        models: Sequence[MachineModel],
        procs: Sequence[int],
        grid_shapes: Sequence[Sequence[int]] | None = None,
    ):
        super().__init__(models)
        self.procs = np.asarray(procs, dtype=np.int64)
        if self.procs.shape != (self.lanes,):
            raise ValueError(
                f"procs must supply one count per lane: got shape "
                f"{self.procs.shape} for {self.lanes} lane(s)"
            )
        if np.any(self.procs < 1):
            raise ValueError("every lane needs procs >= 1")
        if grid_shapes is not None:
            grid_shapes = tuple(tuple(int(d) for d in s) for s in grid_shapes)
            if len(grid_shapes) != self.lanes:
                raise ValueError(
                    f"grid_shapes must supply one shape per lane: got "
                    f"{len(grid_shapes)} for {self.lanes} lane(s)"
                )
            for shape, count in zip(grid_shapes, self.procs):
                if math.prod(shape) != count:
                    raise ValueError(
                        f"grid shape {shape} does not hold {count} procs"
                    )
        #: per-lane processor grid shapes (defaults to 1-d grids)
        self.grid_shapes = grid_shapes or tuple(
            (int(p),) for p in self.procs
        )
        self.name = "procs-" + self.name
