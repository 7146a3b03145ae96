"""SPMD simulator unit tests: memory discipline, fetch accounting,
collectives, and clock behaviour."""

import numpy as np
import pytest

from repro.codegen import run_sequential
from repro.core import CompilerOptions, compile_source
from repro.errors import SimulationError
from repro.ir import parse_and_build
from repro.machine import SPMDSimulator, simulate


def compile_body(body, decls="", procs=4, **opts):
    src = (
        "PROGRAM T\n  PARAMETER (n = 16)\n"
        "  REAL A(n), B(n), E(n)\n" + decls +
        "!HPF$ ALIGN B(i) WITH A(i)\n"
        "!HPF$ ALIGN E(i) WITH A(*)\n"
        "!HPF$ DISTRIBUTE (BLOCK) :: A\n"
        + body + "\nEND PROGRAM\n"
    )
    return compile_source(src, CompilerOptions(num_procs=procs, **opts))


def rand_inputs(seed=1):
    rng = np.random.default_rng(seed)
    return {
        "A": rng.uniform(1, 2, 16),
        "B": rng.uniform(1, 2, 16),
        "E": rng.uniform(1, 2, 16),
    }


class TestMemoryDiscipline:
    def test_local_run_no_messages(self):
        compiled = compile_body("  DO i = 1, n\n    A(i) = B(i)\n  END DO")
        sim = simulate(compiled, rand_inputs())
        assert sim.stats.messages == 0
        assert sim.stats.fetches == 0

    def test_shift_produces_fetches(self):
        compiled = compile_body("  DO i = 2, n\n    A(i) = B(i - 1)\n  END DO")
        sim = simulate(compiled, rand_inputs())
        # Only block-boundary elements cross processors: 3 boundaries.
        assert sim.stats.fetches == 3
        assert sim.stats.unexpected_fetches == 0

    def test_every_fetch_is_analyzed(self):
        compiled = compile_body(
            "  DO i = 2, n - 1\n    A(i) = B(i - 1) + B(i + 1) + E(i)\n  END DO"
        )
        sim = simulate(compiled, rand_inputs())
        assert sim.stats.unexpected_fetches == 0

    def test_gather_requires_valid_data(self):
        compiled = compile_body("  A(1) = 1.0")
        sim = SPMDSimulator(compiled)
        sim.run()
        # B was never initialized via set_array: zero-filled and owned.
        assert sim.gather("B").shape == (16,)

    def test_invalid_scalar_read_raises(self):
        compiled = compile_body("  A(1) = 1.0")
        sim = SPMDSimulator(compiled)
        with pytest.raises(SimulationError):
            sim.gather_scalar("q")

    @pytest.mark.parametrize("tier", [None, "fast", "lowered+slab"])
    def test_unknown_tier_rejected(self, tier):
        compiled = compile_body("  A(1) = 1.0")
        with pytest.raises(ValueError, match=r"auto\|slab\|lowered\|interpreted"):
            simulate(compiled, tier=tier)


class TestClocks:
    def test_elapsed_positive_after_work(self):
        compiled = compile_body("  DO i = 1, n\n    A(i) = B(i) * 2.0\n  END DO")
        sim = simulate(compiled, rand_inputs())
        assert sim.elapsed > 0.0

    def test_comm_increases_elapsed(self):
        local = compile_body("  DO i = 1, n\n    A(i) = B(i)\n  END DO")
        remote = compile_body("  DO i = 2, n\n    A(i) = B(i - 1)\n  END DO")
        inputs = rand_inputs()
        t_local = simulate(local, inputs).elapsed
        t_remote = simulate(remote, inputs).elapsed
        assert t_remote > t_local

    def test_replication_slower_than_selected(self):
        body = (
            "  DO i = 2, n - 1\n    x = B(i - 1) + B(i + 1)\n    A(i) = x\n"
            "  END DO"
        )
        inputs = rand_inputs()
        t_sel = simulate(compile_body(body), inputs).elapsed
        t_rep = simulate(
            compile_body(body, strategy="replication"), inputs
        ).elapsed
        assert t_rep > t_sel

    def test_per_rank_clock_accounting(self):
        compiled = compile_body("  DO i = 1, n\n    A(i) = B(i)\n  END DO")
        sim = simulate(compiled, rand_inputs())
        assert len(sim.clocks.time) == 4
        assert sim.clocks.total_compute > 0


class TestCoalescing:
    def test_vectorized_fetches_share_startup(self):
        """16 boundary fetches from one hoisted event must not pay 16
        startups."""
        compiled = compile_body(
            "  DO it = 1, 2\n    DO i = 2, n\n      A(i) = A(i) + B(i - 1)\n"
            "    END DO\n  END DO",
        )
        sim = simulate(compiled, rand_inputs())
        # fetches happen but messages (startups) are far fewer
        assert sim.stats.messages <= sim.stats.fetches

    def test_inner_loop_comm_pays_more_startups(self):
        vec = compile_body("  DO i = 2, n\n    A(i) = B(i - 1)\n  END DO")
        novec = compile_body(
            "  DO i = 2, n\n    A(i) = B(i - 1)\n  END DO",
            message_vectorization=False,
        )
        inputs = rand_inputs()
        m_vec = simulate(vec, inputs).stats.messages
        m_novec = simulate(novec, inputs).stats.messages
        assert m_novec >= m_vec


class TestReductions:
    SRC = (
        "PROGRAM T\n  PARAMETER (n = 8)\n  REAL A(n, n), B(n)\n  REAL s\n"
        "!HPF$ PROCESSORS P(2, 2)\n"
        "!HPF$ ALIGN B(i) WITH A(i, *)\n"
        "!HPF$ DISTRIBUTE (BLOCK, BLOCK) :: A\n"
        "  DO i = 1, n\n    s = 0.0\n    DO j = 1, n\n      s = s + A(i, j)\n"
        "    END DO\n    B(i) = s\n  END DO\nEND PROGRAM\n"
    )

    def test_combines_charged(self):
        compiled = compile_source(self.SRC, CompilerOptions())
        inputs = {"A": np.arange(64, dtype=float).reshape(8, 8)}
        sim = simulate(compiled, inputs)
        assert sim.stats.reductions == 8  # one combine per i iteration

    def test_partial_sums_correct(self):
        compiled = compile_source(self.SRC, CompilerOptions())
        inputs = {"A": np.arange(64, dtype=float).reshape(8, 8)}
        sim = simulate(compiled, inputs)
        assert np.allclose(sim.gather("B"), inputs["A"].sum(axis=1))

    def test_nonzero_init_sum_exact(self):
        """The delta-based combine handles non-identity initial values."""
        src = self.SRC.replace("s = 0.0", "s = 5.0")
        compiled = compile_source(src, CompilerOptions())
        inputs = {"A": np.arange(64, dtype=float).reshape(8, 8)}
        seq = run_sequential(parse_and_build(src), inputs)
        sim = simulate(compiled, inputs)
        assert np.allclose(sim.gather("B"), seq.get_array("B"))


class TestControlFlowExecution:
    def test_predicate_disagreement_impossible_on_consistent_data(self):
        compiled = compile_body(
            "  DO i = 1, n\n    IF (B(i) > 1.5) THEN\n      A(i) = B(i)\n"
            "    END IF\n  END DO"
        )
        sim = simulate(compiled, rand_inputs())  # must not raise
        assert sim.stats.unexpected_fetches == 0


class TestRaggedBlocks:
    def test_non_dividing_processor_count(self):
        """n=16 over P=6: ragged blocks, one processor nearly idle."""
        from repro.ir import parse_and_build
        from repro.codegen import run_sequential
        from repro.programs import tomcatv_inputs, tomcatv_source

        src = tomcatv_source(n=16, niter=1, procs=6)
        inputs = tomcatv_inputs(16)
        seq = run_sequential(parse_and_build(src), inputs)
        compiled = compile_source(src, CompilerOptions())
        sim = simulate(compiled, inputs)
        assert np.allclose(sim.gather("X"), seq.get_array("X"))
        assert sim.stats.unexpected_fetches == 0

    def test_more_processors_than_elements(self):
        src = (
            "PROGRAM T\n  REAL A(3), B(3)\n"
            "!HPF$ ALIGN B(i) WITH A(i)\n"
            "!HPF$ DISTRIBUTE (BLOCK) :: A\n"
            "  DO i = 1, 3\n    A(i) = B(i) + 1.0\n  END DO\nEND PROGRAM\n"
        )
        compiled = compile_source(src, CompilerOptions(num_procs=8))
        sim = simulate(compiled, {"B": np.arange(3, dtype=float)})
        assert list(sim.gather("A")) == [1.0, 2.0, 3.0]
