"""Unit tests for the statement-lowering layer (`repro.machine.lowering`)."""

import math
import pickle

import numpy as np
import pytest

from repro.codegen import run_sequential
from repro.codegen.evalexpr import eval_expr, fortran_int_div
from repro.codegen.seq import GlobalStore
from repro.core import CompilerOptions, compile_source
from repro.errors import InterpreterError
from repro.ir import parse_and_build
from repro.ir.stmt import AssignStmt
from repro.machine import LoweredIR, lower_procedure, simulate
from repro.machine.lowering import ExecutorTables, FastPath
from repro.machine.simulator import SPMDSimulator

SOURCE = """
PROGRAM UNIT
  PARAMETER (n = 10)
  REAL A(n), B(n), C(n)
  REAL s
!HPF$ ALIGN (i) WITH A(i) :: B, C
!HPF$ DISTRIBUTE (BLOCK) :: A
  s = 0.0
  DO i = 2, n - 1
    A(i) = SQRT(ABS(B(i - 1))) + C(i + 1) * 2.0
    s = s + A(i)
  END DO
  DO i = 1, n
    C(i) = s
  END DO
END PROGRAM
"""


def _inputs(n=10, seed=1):
    rng = np.random.default_rng(seed)
    return {name: rng.uniform(1, 2, n) for name in "ABC"}


class TestFortranIntDiv:
    @pytest.mark.parametrize(
        "left,right",
        [(7, 2), (-7, 2), (7, -2), (-7, -2), (6, 3), (-6, 3), (0, 5), (1, 7)],
    )
    def test_truncates_toward_zero(self, left, right):
        assert fortran_int_div(left, right) == math.trunc(left / right)

    def test_exact_beyond_float_precision(self):
        # int(left / right) loses bits above 2**53; // arithmetic must not.
        left = 2**60 + 1
        assert fortran_int_div(left, 1) == left
        assert fortran_int_div(-left, 1) == -left
        assert fortran_int_div(left, 3) == left // 3
        assert fortran_int_div(-left, 3) == -(left // 3)


class TestLoweringCache:
    def test_same_epoch_hits_cache(self):
        proc = parse_and_build(SOURCE)
        assert lower_procedure(proc) is lower_procedure(proc)

    def test_finalize_invalidates(self):
        proc = parse_and_build(SOURCE)
        before = lower_procedure(proc)
        proc.finalize()
        after = lower_procedure(proc)
        assert after is not before
        assert after.ir_epoch == proc.ir_epoch

    def test_pickle_round_trip_relowers(self):
        # LoweredIR holds exec'd closures; pickling reduces to the IR
        # and arrives as a lazy stand-in that re-lowers on first touch
        # (so CompiledProgram crosses the compile_many pool and the
        # disk cache without paying builtins.compile up front).
        proc = parse_and_build(SOURCE)
        lowered = lower_procedure(proc)
        clone = pickle.loads(pickle.dumps(lowered))
        assert not isinstance(clone, LoweredIR)  # lazy until touched
        assert set(clone.assigns) == set(lowered.assigns)
        assert isinstance(clone.force(), LoweredIR)
        assert set(clone.conds) == set(lowered.conds)
        assert clone.flops == lowered.flops


class TestExpressionClosures:
    def test_closures_match_eval_expr(self):
        proc = parse_and_build(SOURCE)
        lowered = lower_procedure(proc)
        store = GlobalStore(proc)
        for name, values in _inputs().items():
            store.set_array(name, values)
        store.scalars["S"] = 0.25
        env = {"I": 4}
        for stmt in proc.all_stmts():
            if not isinstance(stmt, AssignStmt):
                continue
            fn = lowered.assigns[stmt.stmt_id]
            index, value = fn(store, env)
            assert value == eval_expr(stmt.rhs, store, env), stmt

    def test_subscript_error_matches_interpreter(self):
        src = SOURCE.replace("DO i = 2, n - 1", "DO i = 2, n + 1")
        fast_err = slow_err = None
        try:
            run_sequential(parse_and_build(src), _inputs(), fast_path=True)
        except InterpreterError as e:
            fast_err = str(e)
        try:
            run_sequential(parse_and_build(src), _inputs(), fast_path=False)
        except InterpreterError as e:
            slow_err = str(e)
        assert fast_err is not None
        assert fast_err == slow_err

    def test_integer_division_by_zero_matches_interpreter(self):
        src = (
            "PROGRAM Z\n  PARAMETER (n = 4)\n  REAL A(n)\n  INTEGER k\n"
            "!HPF$ DISTRIBUTE (BLOCK) :: A\n"
            "  DO i = 1, n\n    k = i / (i - 1)\n    A(i) = REAL(k)\n"
            "  END DO\nEND PROGRAM\n"
        )
        for fast in (True, False):
            with pytest.raises(InterpreterError, match="integer division by zero"):
                run_sequential(parse_and_build(src), fast_path=fast)


class TestExecutorTables:
    def test_ranks_match_interpreted_executor_sets(self):
        compiled = compile_source(SOURCE, CompilerOptions(num_procs=4))
        sim = SPMDSimulator(compiled, tier="slab")
        for name, values in _inputs().items():
            sim.set_array(name, values)
        tables = ExecutorTables(sim)
        for stmt in compiled.proc.all_stmts():
            if stmt.stmt_id not in compiled.executors:
                continue
            loops = [lp.var.name for lp in stmt.loops_enclosing()]
            for i in range(1, 11):
                env = dict.fromkeys(loops, i)
                assert tables.ranks(stmt, env) == sim.executor_ranks(stmt, env), (
                    stmt,
                    env,
                )

    def test_fast_path_prefers_compiled_lowering(self):
        compiled = compile_source(SOURCE, CompilerOptions(num_procs=4))
        assert compiled.lowering is not None
        sim = SPMDSimulator(compiled, tier="slab")
        assert FastPath(sim).lowered is compiled.lowering

    def test_fast_path_relowers_on_stale_epoch(self):
        compiled = compile_source(SOURCE, CompilerOptions(num_procs=4))
        stale = compiled.lowering
        compiled.proc.finalize()
        sim = SPMDSimulator(compiled, tier="slab")
        fp = FastPath(sim)
        assert fp.lowered is not stale
        assert fp.lowered.ir_epoch == compiled.proc.ir_epoch


class TestFetchCharging:
    def test_block_staging_preserves_traffic_totals(self):
        # The coalescing stage changes only where fetched values are
        # read from; every per-element charge is identical.
        compiled = compile_source(SOURCE, CompilerOptions(num_procs=4))
        fast = simulate(compiled, _inputs(), tier="slab")
        slow = simulate(compiled, _inputs(), tier="interpreted")
        assert fast.stats.as_dict() == slow.stats.as_dict()
        assert fast.clocks.snapshot() == slow.clocks.snapshot()
