"""Host-speed normalization of wall times.

On a shared host the same operation's wall time drifts by 20 % and
more within tens of seconds, as neighbours load the machine; a median
over one run cannot average that out.  The drift hits a fixed
pure-Python reference loop in step, so each run times that loop right
before and right after every operation and scales the operation's
time by ``REFERENCE_S / median(those loop times)``: seconds on a host
where the loop takes ``REFERENCE_S``.  On the 2-vCPU VM the benchmark
was tuned on, this cut the run-to-run spread of a 15 s median from
9-38 % to 4-11 % (see README.md).  The loop belongs to the benchmark and never changes
with the program, so a change to the program moves the scaled times
as it moves the raw ones.
"""

from __future__ import annotations

import random
import statistics
import time

#: the reference loop's median wall time on an unloaded core of the
#: host the benchmark was tuned on (2-vCPU x86-64 VM, Python 3.11)
REFERENCE_S = 0.010
#: samples taken before the first operation, and for a set-up factor
MIN_SAMPLES = 15
#: reference-loop time taken after each operation, as a share of the
#: operations' own time
DUTY = 0.15


class _ReferenceData:
    """Expression trees and variable environments for the reference
    loop, built once from a fixed seed (about 3 MB)."""

    def __init__(self) -> None:
        rng = random.Random(20260101)

        def tree(depth: int):
            if depth == 0:
                if rng.random() < 0.5:
                    return ("var", rng.randrange(512))
                return ("const", rng.random())
            return (rng.choice("+-*"), tree(depth - 1), tree(depth - 1))

        self.trees = [tree(8) for _ in range(4)]
        self.envs = [{i: rng.random() for i in range(512)} for _ in range(48)]
        self.rows = [[rng.random() for _ in range(64)] for _ in range(1000)]


def _evaluate(node, env) -> float:
    op = node[0]
    if op == "var":
        return env[node[1]]
    if op == "const":
        return node[1]
    left, right = _evaluate(node[1], env), _evaluate(node[2], env)
    if op == "+":
        return left + right
    return left - right if op == "-" else left * right


def reference_loop(data: _ReferenceData) -> float:
    """Fixed interpreter work shaped like the program's pure-Python
    layers (the sequential oracle walks expression trees over dict
    environments): recursive evaluation plus list traffic."""
    total = 0.0
    for k in range(40):
        env = data.envs[k * 7 % len(data.envs)]
        for tree in data.trees:
            total += _evaluate(tree, env)
        total += sum(data.rows[k * 997 % len(data.rows)])
    return total


def factor_of(samples: list[float]) -> float:
    """Multiplier from wall seconds to reference seconds while the loop
    took ``samples``."""
    return REFERENCE_S / statistics.median(samples)


class HostClock:
    """Times the reference loop between a run's operations."""

    def __init__(self) -> None:
        self._data = _ReferenceData()
        self._owed = 0.0
        #: every sample of the run, for its overall median
        self.samples: list[float] = []

    def sample(self, count: int) -> list[float]:
        taken = []
        for _ in range(count):
            started = time.perf_counter()
            reference_loop(self._data)
            taken.append(time.perf_counter() - started)
        self.samples += taken
        return taken

    def after_op(self, op_seconds: float) -> list[float]:
        """Samples until the loop has run for DUTY times the operations
        timed so far (none after a short operation that owes less than
        one sample)."""
        self._owed += DUTY * op_seconds
        taken = []
        while self._owed > 0:
            started = time.perf_counter()
            taken += self.sample(1)
            self._owed -= time.perf_counter() - started
        return taken

    def factor(self) -> float:
        """The set-up factor: MIN_SAMPLES samples, taken now."""
        return factor_of(self.sample(MIN_SAMPLES))
