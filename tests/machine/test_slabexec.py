"""Unit tests for the tier-3 slab engine (`repro.machine.slabexec`).

Covers the static classifier (eligibility decisions on the paper
benchmarks), report plumbing through the pass manager, and runtime
behaviour: coverage, fallback, ghost-column fetch replay.
"""

import pickle
from collections import Counter

import numpy as np

from repro.core import CompilerOptions, compile_source
from repro.machine import simulate
from repro.programs import dgefa_source, tomcatv_inputs, tomcatv_source


def _compile_tomcatv(n=12, procs=4):
    return compile_source(
        tomcatv_source(n=n, niter=1, procs=procs),
        CompilerOptions(num_procs=procs),
    )


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
