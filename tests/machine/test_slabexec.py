"""Unit tests for the tier-3 slab engine (`repro.machine.slabexec`).

Covers the trip-count form, the static classifier (eligibility
decisions on the paper benchmarks), report plumbing through the pass
manager, and runtime behaviour: coverage, fallback, ghost-column fetch
replay, and the concrete disjointness bails.
"""

import pickle
from collections import Counter

import numpy as np
import pytest

from repro.core import CompilerOptions, compile_source
from repro.ir.build import make_inputs
from repro.machine import simulate
from repro.machine.slabexec import slab_trip_count
from repro.obs import Metrics
from repro.programs import dgefa_source, tomcatv_inputs, tomcatv_source


def _compile_tomcatv(n=12, procs=4):
    return compile_source(
        tomcatv_source(n=n, niter=1, procs=procs),
        CompilerOptions(num_procs=procs),
    )


class TestTripCount:
    @pytest.mark.parametrize(
        "low,high,step,expect",
        [(1, 10, 1, 10), (1, 10, 3, 4), (10, 1, 1, 0), (5, 5, 2, 1),
         (10, 1, -2, 5)],
    )
    def test_trip_count_scalar(self, low, high, step, expect):
        assert slab_trip_count(low, high, step) == expect

    def test_trip_count_vector(self):
        low = np.asarray([1, 1, 10])
        got = slab_trip_count(low, 10, 1)
        assert got.tolist() == [10, 10, 1]


class TestClassifier:
    def test_tomcatv_eligibility(self):
        report = _compile_tomcatv().slabs
        assert report is not None
        verdicts = Counter(report.inner.values())
        # residual/new-coordinate/SOR sweeps vectorize; the two
        # tridiagonal elimination loops carry a recurrence
        assert verdicts["ok"] == 3
        carried = [r for r in report.inner.values() if r != "ok"]
        assert len(carried) == 2
        assert all("loop-carried" in r for r in carried)
        # both J sweeps over whole columns take the column plan
        assert list(report.column.values()) == ["ok", "ok"]

    def test_dgefa_eligibility(self):
        compiled = compile_source(
            dgefa_source(n=12, procs=4), CompilerOptions(num_procs=4)
        )
        report = compiled.slabs
        reasons = set(report.inner.values()) | set(report.column.values())
        assert "body contains IfStmt" in reasons  # pivot search
        assert any("executor position varies" in r for r in reasons)
        assert "ok" in report.inner.values()  # elimination updates

    def test_report_is_pickle_safe(self):
        report = _compile_tomcatv().slabs
        clone = pickle.loads(pickle.dumps(report))
        assert clone.inner == report.inner
        assert clone.column == report.column
        assert clone.ir_epoch == report.ir_epoch


class TestRuntime:
    def test_tomcatv_coverage_and_parity(self):
        compiled = _compile_tomcatv()
        inputs = tomcatv_inputs(12)
        slab = simulate(compiled, inputs, tier="slab")
        walker = simulate(compiled, inputs, tier="interpreted")
        assert slab.slab_instances > 0
        assert slab.slab_coverage > 0.9
        assert slab.clocks.snapshot() == walker.clocks.snapshot()
        assert slab.stats.as_dict() == walker.stats.as_dict()
        for name in ("X", "Y"):
            assert (
                slab.gather(name).tobytes() == walker.gather(name).tobytes()
            )

    def test_lowered_tier_executes_nothing_in_tier3(self):
        compiled = _compile_tomcatv()
        sim = simulate(
            compiled, tomcatv_inputs(12), tier="lowered"
        )
        assert sim.slab_instances == 0

    def test_missing_report_is_rebuilt_at_runtime(self):
        compiled = _compile_tomcatv()
        compiled.slabs = None  # e.g. compiled artifact from an old cache
        sim = simulate(
            compiled, tomcatv_inputs(12), tier="slab"
        )
        assert sim.slab_instances > 0

    def test_ghost_column_fetches_replay_inside_slab(self):
        """A (*, BLOCK) stencil reads the neighbour rank's boundary
        column; the slab engine must replay those demand fetches with
        tier-2's exact coalescing, charging, and delivery."""
        n = 10
        source = (
            f"PROGRAM G\n  PARAMETER (n = {n})\n"
            "  REAL A(n,n), B(n,n)\n"
            "!HPF$ ALIGN (i,j) WITH A(i,j) :: B\n"
            "!HPF$ DISTRIBUTE (*, BLOCK) :: A\n"
            "  DO j = 2, n - 1\n    DO i = 2, n - 1\n"
            "      A(i,j) = B(i, j - 1) + B(i, j + 1)\n"
            "    END DO\n  END DO\nEND PROGRAM\n"
        )
        rng = np.random.default_rng(3)
        inputs = {nm: rng.uniform(1, 2, (n, n)) for nm in "AB"}
        compiled = compile_source(source, CompilerOptions(num_procs=4))
        slab = simulate(compiled, inputs, tier="slab")
        walker = simulate(compiled, inputs, tier="interpreted")
        assert slab.slab_instances > 0
        assert slab.stats.messages > 0  # ghost columns really moved
        assert slab.clocks.snapshot() == walker.clocks.snapshot()
        assert slab.stats.as_dict() == walker.stats.as_dict()
        assert slab.gather("A").tobytes() == walker.gather("A").tobytes()


#: an innermost loop entered for k = 1, 2: its two stores (or its store
#: and read) coincide exactly when k = 1
OVERLAP_INNER = """PROGRAM W
  PARAMETER (n = 8)
  REAL A(n,n), B(n,n)
!HPF$ ALIGN (i,j) WITH A(i,j) :: B
!HPF$ DISTRIBUTE (*, BLOCK) :: A
  DO k = 1, 2
    DO i = 1, n
{body}
    END DO
  END DO
END PROGRAM
"""

#: the same for a column nest over j, taken over as one TriangularPlan
OVERLAP_TRIANGULAR = """PROGRAM W
  PARAMETER (n = 8)
  REAL A(n,2,n)
!HPF$ DISTRIBUTE (*, *, BLOCK) :: A
  DO k = 1, 2
    DO j = 1, n
      DO i = 1, n
{body}
      END DO
    END DO
  END DO
END PROGRAM
"""


class TestConcreteDisjointness:
    """Distinct subscript forms that the classifier proves never meet
    in one iteration may still name the same elements at run time;
    prepare checks the concrete index sets and bails to tier 2."""

    @pytest.mark.parametrize(
        "table, source, procs, reason",
        [
            (
                "inner",
                OVERLAP_INNER.format(
                    body="      A(i,1) = B(i,1) + 1.0\n"
                    "      A(i,k) = B(i,k) * 2.0"
                ),
                2,
                "write regions overlap",
            ),
            (
                "inner",
                OVERLAP_INNER.format(body="      A(i,1) = A(i,k) + B(i,1)"),
                1,
                "read overlaps writes across lanes",
            ),
            (
                "triangular",
                OVERLAP_TRIANGULAR.format(
                    body="        A(i,1,j) = 0.5 * i\n"
                    "        A(i,k,j) = 0.25 * i"
                ),
                2,
                "write regions overlap",
            ),
            (
                "triangular",
                OVERLAP_TRIANGULAR.format(body="        A(i,1,j) = A(i,k,j) + 0.5"),
                2,
                "read overlaps writes across lanes",
            ),
        ],
        ids=["inner-writes", "inner-read", "triangular-writes", "triangular-read"],
    )
    def test_overlap_bails_to_tier2(self, table, source, procs, reason):
        compiled = compile_source(source, CompilerOptions(num_procs=procs))
        (loop,) = [
            sid
            for sid, verdict in getattr(compiled.slabs, table).items()
            if verdict == "ok"
        ]
        inputs = make_inputs(compiled.proc, 0)
        metrics = Metrics()
        slab = simulate(compiled, inputs, tier="slab", metrics=metrics)
        lowered = simulate(compiled, inputs, tier="lowered")
        counters = metrics.counters
        assert counters[f"slab.bail[{reason}]"] >= 1
        # k = 1 bails, k = 2 (disjoint) commits
        assert counters[f"slab.fallback[loop=S{loop}]"] == 1
        assert counters[f"slab.takeover[loop=S{loop}]"] == 1
        assert slab.clocks.snapshot() == lowered.clocks.snapshot()
        assert slab.stats.as_dict() == lowered.stats.as_dict()
        for sm, lm in zip(slab.memories, lowered.memories):
            for name in lm.arrays:
                assert sm.arrays[name].tobytes() == lm.arrays[name].tobytes()
                assert sm.valid[name].tobytes() == lm.valid[name].tobytes()
