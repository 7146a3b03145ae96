"""Per-layer timing from outside the program.

The traced run swaps the public functions each layer exposes for
timing wrappers (``probes``), runs one operation, and reduces the
spans it recorded to per-layer *self time*: a span's duration minus
the part of it that wrapped child calls cover.  Self times therefore
partition an operation — summed with the untimed glue
(``unaccounted_s``) they give its wall time — and nothing inside the
program changes: the wrappers live here and are removed again after
every traced operation.

Layers are named by the module they belong to (``codegen.oracle`` is
``repro.codegen.seq.run_sequential``); each metric is reported as
``<layer>_s``.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator


class _Frame:
    __slots__ = ("layer", "start", "child_s", "children")

    def __init__(self, layer: str, start: float):
        self.layer = layer
        self.start = start
        self.child_s = 0.0
        #: (layer, start, end) of each direct wrapped child call
        self.children: list[tuple[str, float, float]] = []


def _split_session_run(frame: _Frame, end: float) -> dict[str, float]:
    """``Session.run`` compiles, builds inputs, runs the oracle,
    simulates, then validates.  Its own code (outside the wrapped
    calls) before the oracle starts is input generation; after the
    simulation ends it is validation.  Whatever lies between stays
    unassigned and surfaces in ``unaccounted_s``."""
    oracle = [c for c in frame.children if c[0] == "codegen.oracle"]
    sims = [c for c in frame.children if c[0] == "machine.simulate"]
    cut_inputs = oracle[0][1] if oracle else end
    cut_validate = sims[-1][2] if sims else end

    def own(lo: float, hi: float) -> float:
        covered = sum(
            c_end - c_start
            for _, c_start, c_end in frame.children
            if c_start >= lo and c_end <= hi
        )
        return max(hi - lo, 0.0) - covered

    return {
        "ir.inputs": own(frame.start, cut_inputs),
        "api.validate": own(cut_validate, end),
    }


#: the one layer whose own code is split between several layer metrics
_SPLIT_LAYER = "api.run"


class Recorder:
    """Span stack + per-operation totals: self seconds per layer, and
    what hooks note while the operation runs — ``detail`` seconds that
    break a layer down (never added to the layer sums) and ``counts``."""

    def __init__(self) -> None:
        self._stack: list[_Frame] = []
        self.seconds: dict[str, float] = defaultdict(float)
        self.detail: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)

    def take(self) -> tuple[dict[str, float], ...]:
        """This operation's (seconds, detail, counts); resets them."""
        taken = tuple(dict(d) for d in (self.seconds, self.detail, self.counts))
        for totals in (self.seconds, self.detail, self.counts):
            totals.clear()
        return taken

    def wrap(self, probe: "Probe", fn: Callable) -> Callable:
        """``fn`` timed as one span of ``probe.layer``.  The probe's
        ``on_call(args, kwargs)`` may add keyword arguments before the
        span opens; ``on_return(args, kwargs, result)`` runs after it
        closes (its cost lands in the caller's self time, so hooks
        only read attributes)."""
        stack = self._stack
        layer, on_call, on_return = probe.layer, probe.on_call, probe.on_return

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            frame = _Frame(layer, time.perf_counter())
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self._close(frame, end)
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        return timed

    def _close(self, frame: _Frame, end: float) -> None:
        duration = end - frame.start
        if self._stack:
            parent = self._stack[-1]
            parent.child_s += duration
            parent.children.append((frame.layer, frame.start, end))
        if frame.layer == _SPLIT_LAYER:
            for layer, seconds in _split_session_run(frame, end).items():
                self.seconds[layer] += seconds
        else:
            self.seconds[frame.layer] += duration - frame.child_s


@dataclass(frozen=True)
class Probe:
    """One timed entry point: ``owner.attr`` (a module function or a
    class's method) counts toward ``layer``."""

    owner: Any
    attr: str
    layer: str
    on_call: Callable[[tuple, dict], None] | None = None
    on_return: Callable[[tuple, dict, Any], None] | None = None


@contextmanager
def probes(recorder: Recorder, targets: list[Probe]) -> Iterator[Recorder]:
    """Install timing wrappers on ``targets`` for the duration of the
    block, restoring the originals afterwards (also on error)."""
    saved = []
    try:
        for probe in targets:
            original = vars(probe.owner)[probe.attr]
            saved.append((probe.owner, probe.attr, original))
            setattr(probe.owner, probe.attr, recorder.wrap(probe, original))
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
