"""Tier 3: slab-vectorized loop execution.

The lowered closures of :mod:`repro.machine.lowering` (tier 2) still
execute one iteration x one rank x one element at a time.  This module
batches whole loop nests into per-rank numpy kernels — the "generalized
data-parallel operation" view of the paper's privatized loops: each
rank evaluates its owned iteration slab as sliced array expressions and
the virtual clocks are charged in closed form from per-statement charge
tapes.

Eligibility (the fallback ladder's top rung) is decided in two stages:

* a **static classification** (:func:`classify_procedure`, run as the
  ``slabexec`` compiler pass) checks the shape of each loop nest —
  assign-only bodies, affine subscripts, executor sets constant in the
  inner loop variable, communication placed at or above the loop per
  the communication analysis, and no loop-carried dependence at the
  loop per :mod:`repro.analysis.dependence`;
* a **runtime plan** rechecks everything that depends on live state
  (validity of read operands, executor rank sets, divisors, subscript
  bounds) and *bails* — executing nothing and mutating nothing — the
  moment any assumption fails.  A bailed takeover falls back to the
  tier-2 lowered closures, which reproduce the per-iteration semantics
  (including any error and its exact partial state) bit for bit.

Bit-for-bit clock identity is guaranteed by construction: per-instance
compute charges are precomputed ``dt`` values replayed through
``np.add.accumulate`` (strictly sequential, unlike pairwise
``np.sum``), so a slab charges exactly the floating-point sum the
per-iteration path would have produced.  Takeovers that would need a
fetch bail — remote reads keep their exact per-element charging in the
lower tiers — so ``TrafficStats`` is untouched by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from ..comm.analysis import hoisted_loop_vars
from ..errors import InterpreterError, MappingError
from ..ir.expr import (
    ArrayElemRef,
    BinOp,
    Const,
    IntrinsicCall,
    ScalarRef,
    UnOp,
    affine_form,
)
from ..ir.stmt import AssignStmt, ContinueStmt, IfStmt, LoopStmt
from ..ir.symbols import ScalarType
from .stats import sequential_sum

_MISSING = object()


class _Bail(Exception):
    """This takeover declines; nothing has been mutated."""


#: what a bound expression can legitimately raise at evaluation time
#: (mirrors lowering's ``_FOLD_ERRORS``): the interpreter's canonical
#: errors plus numeric-domain failures.  Genuine programming errors —
#: NameError, TypeError, AttributeError — must propagate, not bail.
_BOUND_ERRORS = (InterpreterError, ArithmeticError, ValueError, OverflowError)


def slab_trip_count(low, high, step):
    """Trip count of ``DO v = low, high, step`` (0 when empty).

    Closed form ``max(0, (high - low + step) // step)``; ``low``/
    ``high`` may be per-column vectors (triangular nests), in which
    case the result is the per-column vector of trip counts."""
    n = (high - low + step) // step
    if np.ndim(n) == 0:
        return max(int(n), 0)
    return np.maximum(n, 0)


def _canon_form(form) -> tuple:
    """Hashable normal form of an affine subscript, comparable across
    refs: (const, sorted (symbol name, coeff) pairs)."""
    return (
        form.const,
        tuple(sorted((s.name, c) for s, c in form.coeffs if c != 0)),
    )


def _free_names(form) -> set[str]:
    """Names of the symbols without a compile-time value that ``form``
    depends on."""
    return {s.name for s, c in form.coeffs if c != 0 and s.value is None}


# ---------------------------------------------------------------------------
# Vectorized expression evaluation
# ---------------------------------------------------------------------------
#
# Values are numpy arrays (one lane per iteration) or python/numpy
# scalars; ``is_int`` tracks Fortran INTEGER-ness so division picks the
# toward-zero semantics exactly like the interpreter's dynamic types.


def _vec_idiv(left, right):
    la = np.asarray(left, dtype=np.int64)
    ra = np.asarray(right, dtype=np.int64)
    if np.any(ra == 0):
        raise _Bail("integer division by zero")
    q = np.floor_divide(la, ra)
    q = q + ((q < 0) & (q * ra != la))
    return q


def _as_bool(value):
    return np.asarray(value) != 0


class _Ctx:
    """Evaluation context: resolves loop variables, scalars and array
    reads for one lane set.  Subclassed by the plans, which set ``env``
    (the loop-variable environment)."""

    env: dict

    def loop_vec(self, name: str):
        raise NotImplementedError

    def read_scalar(self, ref: ScalarRef):
        raise NotImplementedError

    def read_array(self, ref: ArrayElemRef):
        raise NotImplementedError


def _eval(expr, ctx: _Ctx):
    """Vectorized twin of ``eval_expr``: returns (value, is_int).
    Anything outside the bit-for-bit-safe whitelist raises _Bail."""
    if isinstance(expr, Const):
        v = expr.value
        # bool is an int subclass, exactly as the interpreted dynamic
        # typing sees it
        return v, isinstance(v, int)
    if isinstance(expr, ScalarRef):
        sym = expr.symbol
        if sym.value is not None:
            v = sym.value
            return v, isinstance(v, int)
        if sym.is_loop_var:
            lv = ctx.loop_vec(sym.name)
            if lv is not None:
                return lv, True
            if sym.name in ctx.env:
                return ctx.env[sym.name], True
        return ctx.read_scalar(expr)
    if isinstance(expr, ArrayElemRef):
        return ctx.read_array(expr)
    if isinstance(expr, UnOp):
        v, vi = _eval(expr.operand, ctx)
        if expr.op == "-":
            return -v, vi
        if expr.op == ".NOT.":
            if isinstance(v, np.ndarray):
                return ~_as_bool(v), False
            return not v, False
        raise _Bail(f"unary op {expr.op}")
    if isinstance(expr, BinOp):
        le, li = _eval(expr.left, ctx)
        re, ri = _eval(expr.right, ctx)
        op = expr.op
        if op == "+":
            return le + re, li and ri
        if op == "-":
            return le - re, li and ri
        if op == "*":
            return le * re, li and ri
        if op == "/":
            if li and ri:
                return _vec_idiv(le, re), True
            if np.any(np.asarray(re) == 0):
                raise _Bail("division by zero")
            return le / re, False
        if op == "==":
            return le == re, False
        if op == "/=":
            return le != re, False
        if op == "<":
            return le < re, False
        if op == "<=":
            return le <= re, False
        if op == ">":
            return le > re, False
        if op == ">=":
            return le >= re, False
        # .AND./.OR. evaluate both operands (so do both lower tiers)
        if op == ".AND.":
            return _as_bool(le) & _as_bool(re), False
        if op == ".OR.":
            return _as_bool(le) | _as_bool(re), False
        raise _Bail(f"binary op {op}")
    if isinstance(expr, IntrinsicCall):
        return _eval_intrinsic(expr, ctx)
    raise _Bail(f"expression {type(expr).__name__}")


def _eval_intrinsic(expr, ctx):
    name = expr.name
    evaluated = [_eval(a, ctx) for a in expr.args]
    vals = [v for v, _ in evaluated]
    ints = [i for _, i in evaluated]
    if name == "ABS":
        v = vals[0]
        return (np.abs(v) if isinstance(v, np.ndarray) else abs(v)), ints[0]
    if name in ("MAX", "MIN"):
        fn = np.maximum if name == "MAX" else np.minimum
        acc = vals[0]
        for v in vals[1:]:
            acc = fn(acc, v)
        return acc, all(ints)
    if name == "SQRT":
        v = np.asarray(vals[0], dtype=np.float64)
        if np.any(v < 0):
            raise _Bail("SQRT of negative value")
        out = np.sqrt(v)
        return (out if isinstance(vals[0], np.ndarray) else float(out)), False
    if name == "MOD":
        if np.any(np.asarray(vals[1]) == 0):
            raise _Bail("MOD by zero")
        return vals[0] % vals[1], all(ints)
    if name == "SIGN":
        return np.copysign(vals[0], vals[1]), False
    if name in ("REAL", "FLOAT", "DBLE"):
        v = vals[0]
        if isinstance(v, np.ndarray):
            return v.astype(np.float64), False
        return float(v), False
    # EXP/LOG/SIN/COS: numpy's SIMD paths are not guaranteed to match
    # libm bit for bit; INT truncation and ** likewise stay scalar.
    raise _Bail(f"intrinsic {name}")


def _coerce_vec(value, is_int, stype: ScalarType, n: int) -> np.ndarray:
    """``coerce_store`` over a whole lane vector, broadcast to n."""
    if stype is ScalarType.INT:
        if not is_int:
            raise _Bail("REAL value stored to INTEGER")
        out = np.empty(n, dtype=np.int64)
        out[...] = value
        return out
    if stype is ScalarType.LOGICAL:
        out = np.empty(n, dtype=np.bool_)
        out[...] = _as_bool(value)
        return out
    out = np.empty(n, dtype=np.float64)
    out[...] = value
    return out

# ---------------------------------------------------------------------------
# Static classification (the ``slabexec`` compiler pass)
# ---------------------------------------------------------------------------


@dataclass
class SlabReport:
    """Pass product: per-loop slab eligibility.

    ``inner`` maps innermost-loop statement ids to ``"ok"`` or the first
    failing reason; ``column`` does the same for outer loops wrapping a
    single ineligible inner loop (executed column-wise); ``triangular``
    covers outer loops wrapping exactly one inner loop whose bounds may
    vary with the outer index (imperfect nests with prologue/epilogue
    assigns included).  Plain ids and strings only, so the product
    pickles with the compiled program and is rebuilt (like the
    lowering) when ``ir_epoch`` is stale.
    """

    ir_epoch: int
    inner: dict[int, str] = field(default_factory=dict)
    column: dict[int, str] = field(default_factory=dict)
    triangular: dict[int, str] = field(default_factory=dict)

    def eligible_loops(self) -> set[int]:
        """Statement ids of every loop with at least one "ok" verdict."""
        out: set[int] = set()
        for table in (self.inner, self.column, self.triangular):
            out.update(sid for sid, v in table.items() if v == "ok")
        return out

    def summary(self) -> dict[str, int]:
        return {
            "inner_ok": sum(1 for v in self.inner.values() if v == "ok"),
            "inner_total": len(self.inner),
            "column_ok": sum(1 for v in self.column.values() if v == "ok"),
            "column_total": len(self.column),
            "triangular_ok": sum(
                1 for v in self.triangular.values() if v == "ok"
            ),
            "triangular_total": len(self.triangular),
        }


def _placement_map(events) -> dict[int, list[int]]:
    """stmt_id -> placement levels of every comm event charged to it
    (including refs absorbed by message combining)."""
    placements: dict[int, list[int]] = {}
    for e in events:
        refs = [(e.stmt, e)] + [
            (a.stmt, e) for a in list(e.aliases) + list(e.combined_with)
        ]
        for stmt, ev in refs:
            placements.setdefault(stmt.stmt_id, []).append(ev.placement_level)
    return placements


def _stmt_array_refs(stmt: AssignStmt):
    """Every ArrayElemRef in the statement (lhs target + rhs reads,
    including refs nested in subscripts)."""
    out = []
    if isinstance(stmt.lhs, ArrayElemRef):
        out.append(stmt.lhs)
        for sub in stmt.lhs.subscripts:
            out.extend(r for r in sub.refs() if isinstance(r, ArrayElemRef))
    out.extend(r for r in stmt.rhs.refs() if isinstance(r, ArrayElemRef))
    return out


def _stmt_reason(stmt: AssignStmt, placements, loop: LoopStmt) -> str | None:
    """Every statement of a slab nest has affine subscripts and no
    communication placed at or inside the taken-over ``loop``
    (``placements`` None: the runtime plans, which see no placements,
    check the subscripts only)."""
    for ref in _stmt_array_refs(stmt):
        for sub in ref.subscripts:
            if affine_form(sub) is None:
                return (
                    f"S{stmt.stmt_id}: non-affine subscript in "
                    f"{ref.symbol.name}"
                )
    for level in (placements or {}).get(stmt.stmt_id, ()):
        if level >= loop.level:
            return f"S{stmt.stmt_id}: communication placed inside the loop"
    return None


def _check_executor(info, v: str) -> str | None:
    """Executor must be an owner/all set whose position does not vary
    with the vectorized loop variable ``v``."""
    if info is None:
        return "no executor info"
    if info.kind not in ("owner", "all"):
        return f"executor kind {info.kind}"
    if info.kind == "owner":
        for dim in info.position:
            if dim.kind == "pos" and dim.form is not None:
                for sym in dim.form.symbols:
                    if sym.name == v and sym.value is None:
                        return f"executor position varies with {v}"
    return None


def _carried_dependence(proc, loop: LoopStmt, assigns,
                        reduction_ids=frozenset()) -> str | None:
    """Reject any possible cross-iteration flow of values through an
    array at ``loop``'s level (per :mod:`repro.analysis.dependence`).

    A write/read pair sharing *some* dimension whose subscript form is
    identical, has a nonzero coefficient on the loop variable, and is
    otherwise invariant over the loop (no in-body-written scalars)
    touches the same element only in the same iteration — that
    dimension witnesses distance 0 and the pair is allowed; anything
    else that ``may_depend_within_loop`` cannot disprove is treated as
    loop-carried.  A recognized reduction update's own accumulator
    recurrence (write and read in the same update statement) is the
    fold being vectorized, not a rejection."""
    from ..analysis.dependence import may_depend_within_loop

    v = loop.var.name
    written_scalars = {
        s.lhs.symbol.name for s in assigns if isinstance(s.lhs, ScalarRef)
    }

    def zero_distance_witness(wf, of) -> bool:
        for a, b in zip(wf, of):
            if _canon_form(a) != _canon_form(b):
                continue
            if not any(
                c != 0 and sym.name == v and sym.value is None
                for sym, c in a.coeffs
            ):
                continue
            if any(
                sym.value is None and sym.name != v
                and sym.name in written_scalars
                for sym, _c in a.coeffs
            ):
                continue  # the form itself mutates mid-loop
            return True
        return False

    writes = []
    refs = []
    for s in assigns:
        if isinstance(s.lhs, ArrayElemRef):
            writes.append((s, s.lhs))
        for r in _stmt_array_refs(s):
            refs.append((s, r))
    for ws, w in writes:
        w_forms = [affine_form(sub) for sub in w.subscripts]
        if any(f is None for f in w_forms):
            return f"non-affine subscript in {w.symbol.name}"
        for os, o in refs:
            if o is w or o.symbol.name != w.symbol.name:
                continue
            if os is ws and ws.stmt_id in reduction_ids:
                continue  # the accumulator recurrence of a fold
            o_forms = [affine_form(sub) for sub in o.subscripts]
            if any(f is None for f in o_forms):
                return f"non-affine subscript in {o.symbol.name}"
            if len(o_forms) == len(w_forms) and zero_distance_witness(
                w_forms, o_forms
            ):
                continue  # distance 0 only
            if may_depend_within_loop(proc, w, o, loop):
                return f"loop-carried dependence on {w.symbol.name}"
    return None


def _classify_inner(proc, loop: LoopStmt, executors, placements,
                    reduction_ids) -> str:
    v = loop.var.name
    assigns = []
    for s in loop.body:
        if isinstance(s, ContinueStmt):
            continue
        if not isinstance(s, AssignStmt):
            return f"body contains {type(s).__name__}"
        assigns.append(s)
    if not assigns:
        return "empty body"
    for s in assigns:
        reason = _check_executor(executors.get(s.stmt_id), v)
        if reason is not None:
            return f"S{s.stmt_id}: {reason}"
        reason = _stmt_reason(s, placements, loop)
        if reason is not None:
            return reason
    return _carried_dependence(proc, loop, assigns, reduction_ids) or "ok"


def _replicated_exec(info) -> bool:
    """True when the statement executes on every rank, invariantly:
    replicated ("all") or privatized/no-guard ("union") executors whose
    position constrains no grid dimension."""
    return (
        info is not None
        and info.kind in ("all", "union")
        and all(
            dim.kind != "pos" or dim.form is None for dim in info.position
        )
    )


class _Nest:
    """The nest shape both column-style plans take, checked once for the
    static classifier and the runtime plan alike.

    On a one-dimensional grid, the outer loop (variable ``j``) wraps
    straight-line assigns — a prologue, exactly one inner loop (variable
    ``i``) of assigns, an epilogue.  No statement is a reduction update;
    every statement runs on the owner of one canonical 1-D position, a
    point that is a function of ``j`` only; and every array reference
    touches exactly its own ``j`` column: one dimension subscripted
    exactly ``j``, the others ``j``-free.  So the columns evolve
    independently.

    ``flat`` adds the :class:`TriangularPlan` rules, which flatten the
    nest: the inner low/high bounds may be affine in ``j``; scalar-only
    statements may run replicated on every rank; arrays are written
    only in the inner loop, and prologue/epilogue references are
    ``i``-free.  Otherwise the :class:`ColumnPlan` rules apply, which
    step the inner loop in order: invariant inner bounds and rank-2
    arrays.  Any failure raises :class:`_Bail` with the reason."""

    def __init__(self, loop: LoopStmt, executors, reduction_ids, grid_rank,
                 *, flat: bool, placements=None, runs_everywhere=None):
        if grid_rank is not None and grid_rank != 1:
            raise _Bail("grid is not one-dimensional")
        self.j = loop.var.name
        inner: LoopStmt | None = None
        pre: list[AssignStmt] = []
        post: list[AssignStmt] = []
        for s in loop.body:
            if isinstance(s, ContinueStmt):
                continue
            if isinstance(s, LoopStmt):
                if inner is not None:
                    raise _Bail("more than one inner loop")
                inner = s
                continue
            if not isinstance(s, AssignStmt):
                raise _Bail(f"body contains {type(s).__name__}")
            (pre if inner is None else post).append(s)
        if inner is None:
            raise _Bail("no inner loop")
        self.inner = inner
        self.i = inner.var.name
        body: list[AssignStmt] = []
        for s in inner.body:
            if isinstance(s, ContinueStmt):
                continue
            if not isinstance(s, AssignStmt):
                raise _Bail(f"inner body contains {type(s).__name__}")
            body.append(s)
        self.pre, self.body, self.post = pre, body, post
        stmts = pre + body + post
        if flat and not body:
            raise _Bail("empty inner body")
        if not stmts:
            raise _Bail("empty body")
        self.written_scalars = {
            s.lhs.symbol.name for s in stmts if isinstance(s.lhs, ScalarRef)
        }
        self._check_bounds(flat)
        #: stmt ids of the replicated (every-rank, scalar-only) statements
        self.repl: set[int] = set()
        #: canonical owner position; its form and format when a point
        self.pos = _MISSING
        self.pos_form = self.pos_fmt = None
        for s in stmts:
            sid = s.stmt_id
            if sid in reduction_ids:
                raise _Bail(f"S{sid}: reduction update in body")
            info = executors.get(sid)
            if info is None:
                raise _Bail(f"S{sid}: no executor info")
            if flat and (
                _replicated_exec(info)
                or (runs_everywhere is not None and runs_everywhere(s))
            ):
                # every rank runs it each iteration: fine for scalar-only
                # statements with rank-invariant operands (checked at run
                # time); arrays would read per-rank state
                if isinstance(s.lhs, ArrayElemRef) or _stmt_array_refs(s):
                    raise _Bail(f"S{sid}: replicated statement touches arrays")
                self.repl.add(sid)
            else:
                self._check_position(sid, info, flat)
            reason = _stmt_reason(s, placements, loop)
            if reason is not None:
                raise _Bail(reason)
        if self.pos is _MISSING:
            raise _Bail("no owner-positioned statement")
        self._check_columns(flat)

    def _check_bounds(self, flat: bool) -> None:
        """A takeover evaluates the inner bounds once, so nothing they
        read may change during it: not ``i``, no scalar the nest writes,
        and not ``j`` — except in flat low/high bounds, which are affine
        forms evaluated per column."""
        inner = self.inner
        moving = self.written_scalars | {self.i}
        if not flat:
            for bound in (inner.low, inner.high, inner.step):
                if bound is not None and any(
                    isinstance(r, ScalarRef)
                    and r.symbol.name in moving | {self.j}
                    for r in bound.refs()
                ):
                    raise _Bail("inner bounds vary during the takeover")
            return
        self.low_form = affine_form(inner.low)
        self.high_form = affine_form(inner.high)
        step = None if inner.step is None else affine_form(inner.step)
        if (
            self.low_form is None
            or self.high_form is None
            or (inner.step is not None and step is None)
        ):
            raise _Bail("inner bounds not affine")
        if (
            (_free_names(self.low_form) | _free_names(self.high_form))
            & moving
        ) or (step is not None and _free_names(step) & (moving | {self.j})):
            raise _Bail("inner bounds vary during the takeover")

    def _check_position(self, sid: int, info, flat: bool) -> None:
        """The statement runs on the owner of the nest's one canonical
        1-D position.  A column nest also passes with a position no
        point constrains (``any``: one-rank grids, replicated data),
        which :class:`ColumnPlan` declines when it is built."""
        if info.kind != "owner":
            raise _Bail(f"S{sid}: executor kind {info.kind}")
        dim = info.position[0] if len(info.position) == 1 else None
        point = (
            dim is not None
            and dim.kind == "pos"
            and dim.form is not None
            and dim.fmt is not None
        )
        if not point and (flat or dim is None):
            raise _Bail(f"S{sid}: executor position is not a point")
        pos = _canon_form(dim.form) if point else dim.kind
        if self.pos is not _MISSING:
            if pos != self.pos:
                raise _Bail("executor position differs across statements")
            return
        self.pos = pos
        if not point:
            return
        self.pos_form, self.pos_fmt = dim.form, dim.fmt
        for sym, _c in dim.form.coeffs:
            if sym.value is not None or sym.name == self.j:
                continue
            if sym.name == self.i:
                raise _Bail("executor position varies with the inner variable")
            if not sym.is_loop_var or sym.name in self.written_scalars:
                raise _Bail("executor position not a column function")

    def _check_columns(self, flat: bool) -> None:
        """Column discipline over every array reference; records
        ``jdims`` (array name -> its ``j``-column dimension)."""
        i, j = self.i, self.j
        inner_written = {
            s.lhs.symbol.name
            for s in self.body
            if isinstance(s.lhs, ArrayElemRef)
        }
        self.jdims: dict[str, int] = {}
        for in_body, stmts in (
            (False, self.pre), (True, self.body), (False, self.post)
        ):
            outside = flat and not in_body
            for s in stmts:
                if outside and isinstance(s.lhs, ArrayElemRef):
                    raise _Bail("array written outside the inner loop")
                for ref in _stmt_array_refs(s):
                    name = ref.symbol.name
                    if outside and name in inner_written:
                        raise _Bail(
                            f"{name}: written array read outside the inner "
                            "loop"
                        )
                    ref_jdims = []
                    for d, sub in enumerate(ref.subscripts):
                        canon = _canon_form(affine_form(sub))
                        names = {nm for nm, _c in canon[1]}
                        if canon == (0, ((j, 1),)):
                            ref_jdims.append(d)
                        elif j in names:
                            raise _Bail(f"{name}: mixed {j}-subscript")
                        elif outside and i in names:
                            raise _Bail(
                                f"{name}: {i}-subscript outside the inner loop"
                            )
                    if len(ref_jdims) != 1:
                        raise _Bail(f"{name}: no unique {j}-column dimension")
                    d = ref_jdims[0]
                    if self.jdims.setdefault(name, d) != d:
                        raise _Bail(
                            f"{name}: inconsistent {j}-column dimension"
                        )
                    if not flat and len(ref.subscripts) != 2:
                        raise _Bail(f"{name}: only rank-2 arrays supported")


def _classify_nest(proc, loop: LoopStmt, executors, placements,
                   reduction_ids, grid_rank, flat: bool) -> str:
    """The column (``flat`` False) or triangular verdict of an outer
    loop: the :class:`_Nest` shape, plus — for the flattened nest — no
    loop-carried dependence in the inner loop."""
    try:
        nest = _Nest(
            loop, executors, reduction_ids, grid_rank, flat=flat,
            placements=placements,
        )
    except _Bail as bail:
        return str(bail)
    if flat:
        return (
            _carried_dependence(proc, nest.inner, nest.body, reduction_ids)
            or "ok"
        )
    return "ok"


def classify_procedure(proc, executors, events, reduction_ids,
                       grid_rank=None) -> SlabReport:
    """Statically classify every loop nest for slab eligibility."""
    placements = _placement_map(events)
    report = SlabReport(ir_epoch=proc.ir_epoch)

    def visit(stmts):
        for s in stmts:
            if isinstance(s, LoopStmt):
                nested = [b for b in s.body if isinstance(b, LoopStmt)]
                if not nested:
                    report.inner[s.stmt_id] = _classify_inner(
                        proc, s, executors, placements, reduction_ids
                    )
                visit(s.body)
            elif isinstance(s, IfStmt):
                visit(s.then_body)
                visit(s.else_body)

    visit(proc.body)

    def visit_columns(stmts):
        for s in stmts:
            if isinstance(s, LoopStmt):
                nested = [b for b in s.body if isinstance(b, LoopStmt)]
                if (
                    len(nested) == 1
                    and report.inner.get(nested[0].stmt_id, "") != "ok"
                ):
                    report.column[s.stmt_id] = _classify_nest(
                        proc, s, executors, placements, reduction_ids,
                        grid_rank, flat=False,
                    )
                if len(nested) == 1:
                    # classified even when the inner loop is itself
                    # eligible: the outer takeover preempts; a bail
                    # falls back to tier 2, which re-enters the inner
                    # loop's own takeover
                    report.triangular[s.stmt_id] = _classify_nest(
                        proc, s, executors, placements, reduction_ids,
                        grid_rank, flat=True,
                    )
                visit_columns(s.body)
            elif isinstance(s, IfStmt):
                visit_columns(s.then_body)
                visit_columns(s.else_body)

    visit_columns(proc.body)
    return report

# ---------------------------------------------------------------------------
# Runtime plans
# ---------------------------------------------------------------------------

_RED_UFUNC = {
    "+": np.add,
    "*": np.multiply,
    "MAX": np.maximum,
    "MIN": np.minimum,
}


def _reduction_operand(rhs, acc: str, op: str):
    """``acc = acc OP e`` / ``acc = MAX(acc, e)`` → ``e`` (both
    orderings; + and * are bitwise commutative in IEEE), or None."""

    def is_acc(e):
        return isinstance(e, ScalarRef) and e.symbol.name == acc

    e = None
    if op in ("+", "*") and isinstance(rhs, BinOp) and rhs.op == op:
        if is_acc(rhs.left):
            e = rhs.right
        elif is_acc(rhs.right):
            e = rhs.left
    elif (
        op in ("MAX", "MIN")
        and isinstance(rhs, IntrinsicCall)
        and rhs.name == op
        and len(rhs.args) == 2
    ):
        if is_acc(rhs.args[0]):
            e = rhs.args[1]
        elif is_acc(rhs.args[1]):
            e = rhs.args[0]
    if e is None:
        return None
    for ref in e.refs():
        if isinstance(ref, ScalarRef) and ref.symbol.name == acc:
            return None  # acc on both sides: not a fold
    return e


class _Step:
    """One body assignment, preprocessed."""

    __slots__ = ("stmt", "sid", "dt", "kind", "name", "stype", "rhs",
                 "red_op", "red_expr", "region_key", "repl")

    def __init__(self, stmt: AssignStmt, dt: float):
        self.stmt = stmt
        self.sid = stmt.stmt_id
        self.dt = dt
        self.name = stmt.lhs.symbol.name
        self.stype = stmt.lhs.symbol.type
        self.rhs = stmt.rhs
        self.red_op = None
        self.red_expr = None
        self.region_key = None
        self.repl = False


def _check_form_resolvable(form, loop_vars: tuple[str, ...],
                           scalar_deps: set | None = None) -> None:
    """Subscript/position forms may reference only the vectorized loop
    vars, other (env-resolved) loop variables, and symbolic constants.
    A per-rank memory scalar is allowed only when the caller passes
    ``scalar_deps`` — its name is recorded and the *prepare* phase
    resolves one agreed value across the participants (bailing when the
    copies diverge or are invalid); without that set, it bails here."""
    for sym, _c in form.coeffs:
        if sym.value is not None:
            continue
        if sym.name in loop_vars:
            continue
        if sym.is_loop_var:
            continue  # resolved from env at run time (bail if absent)
        if scalar_deps is not None:
            scalar_deps.add(sym.name)
            continue
        raise _Bail(f"subscript depends on scalar {sym.name}")


def _afold_operand(rhs, name: str, canon: tuple, op: str):
    """``A(c) = A(c) OP e`` / ``A(c) = MAX(A(c), e)`` → ``e`` (both
    orderings), where the accumulator reference matches the store's
    canonical subscript form exactly; None otherwise.  ``e`` must not
    touch the accumulator array at all."""

    def is_acc(e):
        if not isinstance(e, ArrayElemRef) or e.symbol.name != name:
            return False
        forms = [affine_form(s) for s in e.subscripts]
        if any(f is None for f in forms):
            return False
        return tuple(_canon_form(f) for f in forms) == canon

    e = None
    if op in ("+", "*") and isinstance(rhs, BinOp) and rhs.op == op:
        if is_acc(rhs.left):
            e = rhs.right
        elif is_acc(rhs.right):
            e = rhs.left
    elif (
        op in ("MAX", "MIN")
        and isinstance(rhs, IntrinsicCall)
        and rhs.name == op
        and len(rhs.args) == 2
    ):
        if is_acc(rhs.args[0]):
            e = rhs.args[1]
        elif is_acc(rhs.args[1]):
            e = rhs.args[0]
    if e is None:
        return None
    for ref in e.refs():
        if isinstance(ref, ArrayElemRef) and ref.symbol.name == name:
            return None  # acc on both sides: not a fold
    return e


def _affine_vec(form, vec_vars: dict, env, symbol=None, dim=None):
    """Evaluate an affine form over the lanes: returns an int or an
    int64 vector.  ``vec_vars`` maps loop-var name -> lane vector."""
    total = form.const
    vec = None
    for sym, coeff in form.coeffs:
        if sym.value is not None:
            total += coeff * int(sym.value)
            continue
        lanes = vec_vars.get(sym.name)
        if lanes is not None:
            contrib = coeff * lanes
            vec = contrib if vec is None else vec + contrib
            continue
        if sym.name in env:
            total += coeff * int(env[sym.name])
            continue
        raise _Bail(f"unresolved subscript symbol {sym.name}")
    return total if vec is None else vec + total


def _bounds_checked_offset(idx, symbol, dim: int):
    lo, hi = symbol.dims[dim]
    if isinstance(idx, np.ndarray):
        if idx.size and (int(idx.min()) < lo or int(idx.max()) > hi):
            raise _Bail(f"subscript out of bounds for {symbol.name}")
    elif not lo <= idx <= hi:
        raise _Bail(f"subscript out of bounds for {symbol.name}")
    return idx - lo


class _InnerCtx(_Ctx):
    """Per-rank lane evaluation of one inner-loop takeover."""

    def __init__(self, plan: "InnerPlan", rank: int, iv: np.ndarray,
                 env, n: int, offs: dict):
        self.plan = plan
        self.memory = plan.sim.memories[rank]
        self.iv = iv
        self.env = env
        self.n = n
        self.offs = offs
        self.scalar_shadow: dict[str, np.ndarray] = {}
        self.scalar_killed: set[str] = set()
        #: write-region key -> shadow lane vector
        self.array_shadow: dict[tuple, np.ndarray] = {}
        self.array_killed: set[tuple] = set()
        self.red_results: dict[str, Any] = {}
        self.afold_results: dict[int, Any] = {}  # step index -> folded
        self.tape: list[float] = []
        #: step index -> position of its dt on the tape
        self.tape_pos: dict[int, int] = {}
        #: (array name, element) -> [tag, src, value, sid, rid, stmt];
        #: tag = (lane, step, read-seq) of the *first* read in
        #: per-iteration order — where the per-element fetch fires
        self.fetches: dict[tuple, list] = {}
        self.cur_k = 0
        self.cur_stmt = None
        self.q = 0

    def loop_vec(self, name: str):
        return self.iv if name == self.plan.v else None

    def read_scalar(self, ref: ScalarRef):
        name = ref.symbol.name
        if name in self.env:  # mirrors the fetching reader
            v = self.env[name]
            return v, isinstance(v, int)
        vec = self.scalar_shadow.get(name)
        if vec is not None:
            return vec, vec.dtype.kind in "bi"
        if (
            name in self.scalar_killed
            or name in self.plan.written_scalars
            or name in self.plan.acc_names
        ):
            # invalidated mid-loop on this rank, or read before the
            # first in-body write (a cross-iteration carried value)
            raise _Bail(f"scalar {name} not vectorizable here")
        memory = self.memory
        if not memory.scalar_is_valid(name):
            raise _Bail(f"scalar {name} read would fetch")
        v = memory.scalars[name]
        return v, isinstance(v, int)

    def read_array(self, ref: ArrayElemRef):
        name = ref.symbol.name
        rk = self.plan.read_region.get(ref.ref_id)
        if rk is not None:
            vec = self.array_shadow.get(rk)
            if vec is not None:
                return vec, vec.dtype.kind in "bi"
            if rk in self.array_killed:
                raise _Bail(f"array {name} invalidated mid-loop here")
            # read before this iteration's write: pre-state (injective
            # subscripts mean no other iteration has touched the lane)
        off = self.offs[ref.ref_id]
        memory = self.memory
        self.q += 1
        m = memory.valid[name][off]
        if not bool(np.all(m)):
            if rk is not None:
                raise _Bail(f"written array {name} read would fetch")
            # unwritten arrays — and reads prepare has proven disjoint
            # from every write region — may fetch like any cold read
            return self._fetch_read(ref, off, m)
        data = memory.arrays[name][off]
        return data, data.dtype.kind in "bi"

    def _fetch_read(self, ref: ArrayElemRef, off, m):
        """Some lanes read invalid elements: the per-iteration path
        would fetch each one, exactly once, at its first read.  Record
        the fetch (tagged with its per-iteration position so the commit
        replays the charges in the identical order) and read the value
        from the source rank — its copy cannot change during the
        takeover, since only this loop's statements execute."""
        name = ref.symbol.name
        symbol = ref.symbol
        engine = self.plan.fast.engine
        acc = engine.access(name)
        n = self.n
        offv = [
            np.broadcast_to(np.asarray(o, dtype=np.int64), (n,)) for o in off
        ]
        mv = np.broadcast_to(np.asarray(m, dtype=np.bool_), (n,))
        data = self.memory.arrays[name]
        out = np.empty(n, dtype=data.dtype)
        out[:] = data[off]
        lows = [lo for lo, _ in symbol.dims]
        valids = acc.valids
        fetches = self.fetches
        sid = self.cur_stmt.stmt_id
        for lane in np.nonzero(~mv)[0]:
            elem = tuple(int(o[lane]) for o in offv)
            tag = (int(lane), self.cur_k, self.q)
            rec = fetches.get((name, elem))
            if rec is not None:
                if tag < rec[0]:
                    rec[0] = tag
                    rec[3] = sid
                    rec[4] = ref.ref_id
                    rec[5] = self.cur_stmt
                out[lane] = rec[2]
                continue
            index = tuple(e + lo for e, lo in zip(elem, lows))
            try:
                cands = acc.candidates(index)
            except MappingError:
                # the per-iteration path raises the canonical error
                raise _Bail("owner lookup failed") from None
            src = None
            for owner in cands:
                if valids[owner][elem]:
                    src = owner
                    break
            if src is None:
                for r2 in range(len(valids)):
                    if valids[r2][elem]:
                        src = r2
                        break
            if src is None:
                raise _Bail(f"no rank holds {name}{index}")
            value = acc.datas[src][elem].item()
            fetches[(name, elem)] = [
                tag, src, value, sid, ref.ref_id, self.cur_stmt,
            ]
            out[lane] = value
        return out, out.dtype.kind in "bi"

    def process(self, st: _Step, executes: bool, k: int = 0) -> None:
        if not executes:
            # this rank's copy is invalidated by the executing ranks
            if st.kind == "array":
                self.array_shadow.pop(st.region_key, None)
                self.array_killed.add(st.region_key)
            elif st.kind == "scalar":
                self.scalar_shadow.pop(st.name, None)
                self.scalar_killed.add(st.name)
            return  # reductions/folds: private copies stay untouched
        self.cur_k = k
        self.cur_stmt = st.stmt
        self.q = 0
        if st.kind in ("afold", "sfold"):
            off = self.offs[st.stmt.lhs.ref_id]
            memory = self.memory
            if not bool(memory.valid[st.name][off]):
                raise _Bail("fold accumulator invalid")
            start = memory.arrays[st.name][off]
            value, is_int = _eval(st.red_expr, self)
            if st.stype is ScalarType.INT and not is_int:
                raise _Bail("REAL fold into INTEGER accumulator")
            dtype = np.int64 if st.stype is ScalarType.INT else np.float64
            buf = np.empty(self.n + 1, dtype=dtype)
            buf[0] = start
            buf[1:] = value
            self.afold_results[k] = _RED_UFUNC[st.red_op].accumulate(buf)[-1]
            self.tape_pos[k] = len(self.tape)
            self.tape.append(st.dt)
            return
        if st.kind == "reduction":
            acc = st.name
            start = self.red_results.get(acc)
            if start is None:
                if not self.memory.scalar_is_valid(acc):
                    raise _Bail("reduction accumulator invalid")
                start = self.memory.scalars[acc]
            value, is_int = _eval(st.red_expr, self)
            if st.stype is ScalarType.INT and not is_int:
                raise _Bail("REAL fold into INTEGER accumulator")
            dtype = np.int64 if st.stype is ScalarType.INT else np.float64
            buf = np.empty(self.n + 1, dtype=dtype)
            buf[0] = start
            buf[1:] = value
            self.red_results[acc] = _RED_UFUNC[st.red_op].accumulate(buf)[-1]
            self.tape_pos[k] = len(self.tape)
            self.tape.append(st.dt)
            return
        value, is_int = _eval(st.rhs, self)
        vec = _coerce_vec(value, is_int, st.stype, self.n)
        if st.kind == "array":
            self.array_shadow[st.region_key] = vec
            self.array_killed.discard(st.region_key)
        else:
            self.scalar_shadow[st.name] = vec
            self.scalar_killed.discard(st.name)
        self.tape_pos[k] = len(self.tape)
        self.tape.append(st.dt)


class _WrittenArray:
    """One write *region* of an array: all stores sharing a canonical
    subscript form.  An array written under several distinct forms gets
    several regions; *prepare* verifies the concrete index sets are
    pairwise disjoint (else it bails to tier 2)."""

    __slots__ = ("write_steps", "ref0")

    def __init__(self, ref0):
        self.write_steps: list[int] = []
        self.ref0 = ref0  # a representative lhs ref_id for offsets


def _commit_nothing() -> None:
    """The commit of an empty takeover."""


class _WriteRegions:
    """Write regions and per-reference lane offsets of a lane-parallel
    takeover (:class:`InnerPlan`, :class:`TriangularPlan`).

    Array stores are grouped into regions by canonical subscript form.
    A read of a written array either matches a region exactly (lane for
    lane) or is listed as a disjoint read; both are verified on the
    concrete indices at prepare, where they are known."""

    def _init_regions(self) -> None:
        #: (name, canon) -> write region
        self.regions: dict[tuple, _WrittenArray] = {}
        #: name -> region keys of that array
        self.written_arrays: dict[str, list[tuple]] = {}
        #: read ref_id -> region key, for reads matching a write region
        self.read_region: dict[int, tuple] = {}
        #: read ref_ids of written arrays with *no* matching region:
        #: concretely checked disjoint from every write at prepare
        self.disjoint_reads: list[int] = []
        #: ref_id -> (symbol, forms, offset key); refs sharing an offset
        #: key share one offset evaluation per prepare
        self.ref_forms: dict[int, tuple] = {}

    def _add_ref(self, ref: ArrayElemRef, forms, canon, lanes=None) -> None:
        """Register a reference evaluated over the lane set ``lanes``."""
        self.ref_forms[ref.ref_id] = (
            ref.symbol, forms, (ref.symbol.name, lanes, canon)
        )

    def _add_write(self, st: _Step, k: int, forms, canon,
                   lanes=None) -> None:
        key = (st.name, canon)
        info = self.regions.get(key)
        if info is None:
            info = _WrittenArray(st.stmt.lhs.ref_id)
            self.regions[key] = info
            self.written_arrays.setdefault(st.name, []).append(key)
        info.write_steps.append(k)
        st.region_key = key
        self._add_ref(st.stmt.lhs, forms, canon, lanes)

    def _add_read(self, ref: ArrayElemRef, forms, lanes=None) -> None:
        """Register a read, after every write has been registered."""
        canon = tuple(_canon_form(f) for f in forms)
        name = ref.symbol.name
        if name in self.written_arrays:
            key = (name, canon)
            if key in self.regions:
                self.read_region[ref.ref_id] = key
            else:
                self.disjoint_reads.append(ref.ref_id)
        self._add_ref(ref, forms, canon, lanes)

    def _lane_offsets(self, lane_vars: dict, env) -> dict[int, tuple]:
        """ref_id -> bounds-checked zero-based offsets of every lane;
        ``lane_vars`` maps a reference's lane set to its loop-variable
        lane vectors."""
        offs: dict[int, tuple] = {}
        by_key: dict[tuple, tuple] = {}
        for ref_id, (symbol, forms, key) in self.ref_forms.items():
            got = by_key.get(key)
            if got is None:
                vec_vars = lane_vars[key[1]]
                got = tuple(
                    _bounds_checked_offset(
                        _affine_vec(f, vec_vars, env), symbol, d
                    )
                    for d, f in enumerate(forms)
                )
                by_key[key] = got
            offs[ref_id] = got
        return offs

    def _check_disjoint(self, offs: dict[int, tuple], n: int) -> None:
        """Several write regions, or reads matching none: the static
        classification was symbolic — verify the concrete index sets of
        the ``n`` lanes are disjoint, else per-iteration order matters."""
        if len(self.regions) <= 1 and not self.disjoint_reads:
            return

        def flat_of(ref_id):
            symbol = self.ref_forms[ref_id][0]
            shape = tuple(symbol.extent(d) for d in range(symbol.rank))
            idx = tuple(
                np.broadcast_to(np.asarray(o, dtype=np.int64), (n,))
                for o in offs[ref_id]
            )
            return np.ravel_multi_index(idx, shape)

        wflats = {
            key: flat_of(info.ref0) for key, info in self.regions.items()
        }
        for keys in self.written_arrays.values():
            for a in range(len(keys)):
                for b in range(a + 1, len(keys)):
                    if np.intersect1d(wflats[keys[a]], wflats[keys[b]]).size:
                        raise _Bail("write regions overlap")
        for ref_id in self.disjoint_reads:
            rflat = flat_of(ref_id)
            for key in self.written_arrays[self.ref_forms[ref_id][0].name]:
                if np.intersect1d(rflat, wflats[key]).size:
                    raise _Bail("read overlaps writes across lanes")


class InnerPlan(_WriteRegions):
    """Vectorized execution of one innermost loop: every iteration is a
    lane; each participating rank evaluates its statements over the
    whole lane vector, then commits stores, invalidations, and charge
    tapes.  Any condition the per-iteration path would have handled
    differently (invalid reads → fetches, bounds errors, non-affine
    values) raises :class:`_Bail` before anything is mutated."""

    def __init__(self, slab: "SlabExecutor", loop: LoopStmt):
        sim = slab.sim
        fast = slab.fast
        self.sim = sim
        self.fast = fast
        self.loop = loop
        self.v = loop.var.name
        self.steps: list[_Step] = []
        self._init_regions()
        self.written_scalars: dict[str, int] = {}  # name -> last writer
        self.acc_names: set[str] = set()
        #: array name -> step index of its fold (reduction into a fixed
        #: element, e.g. ``AMD(k) = MAX(AMD(k), ...)``)
        self.afold_arrays: dict[str, int] = {}
        #: memory scalars subscripts depend on, resolved at prepare
        self.subscript_scalars: set[str] = set()
        for stmt in loop.body:
            if isinstance(stmt, ContinueStmt):
                continue
            if not isinstance(stmt, AssignStmt):
                raise _Bail("non-assign in body")
            dt = fast._dt.get(stmt.stmt_id)
            if dt is None:
                raise _Bail("statement not lowered")
            st = _Step(stmt, dt)
            k = len(self.steps)
            self.steps.append(st)
            red = sim._reduction_updates.get(stmt.stmt_id)
            if red is not None:
                reduction, _mapping = red
                if (
                    reduction.location_symbol is None
                    and reduction.op in _RED_UFUNC
                    and isinstance(stmt.lhs, ArrayElemRef)
                    and reduction.symbol.name == st.name
                ):
                    # fold into one array element: the subscripts must
                    # be loop-invariant, so every lane hits the same
                    # private accumulator element
                    forms = self._forms(stmt.lhs, "fold")
                    if any(self.v in _free_names(f) for f in forms):
                        raise _Bail("fold subscript varies with lane")
                    self._add_fold(st, k, forms, reduction.op)
                    continue
                if (
                    not isinstance(stmt.lhs, ScalarRef)
                    or reduction.location_symbol is not None
                    or reduction.op not in _RED_UFUNC
                    or reduction.symbol.name != st.name
                ):
                    raise _Bail("unsupported reduction form")
                e = _reduction_operand(stmt.rhs, st.name, reduction.op)
                if e is None:
                    raise _Bail("unrecognized reduction update")
                st.kind = "reduction"
                st.red_op = reduction.op
                st.red_expr = e
                self.acc_names.add(st.name)
            elif isinstance(stmt.lhs, ArrayElemRef):
                forms = self._forms(stmt.lhs, "store")
                canon = tuple(_canon_form(f) for f in forms)
                if (st.name, canon) not in self.regions and not any(
                    self.v in _free_names(f) for f in forms
                ):
                    # every lane stores the same element: only a serial
                    # fold (``A(c) = A(c) OP e``, the reduction-into-
                    # column shape the reduction pass left as a plain
                    # owner-computes assign) has per-iteration semantics
                    # a slab can replay
                    self._add_fold(st, k, forms, None)
                    continue
                st.kind = "array"
                self._add_write(st, k, forms, canon)
            else:
                st.kind = "scalar"
                self.written_scalars[st.name] = k
        if not self.steps:
            raise _Bail("empty body")
        # rhs reads: affine forms everywhere; a read of an in-body
        # written array either matches a write region exactly (lane for
        # lane) or must be concretely disjoint from all of them —
        # deferred to prepare, where the indices are known
        for st in self.steps:
            expr = st.red_expr if st.kind in ("reduction", "afold", "sfold") else st.rhs
            for ref in expr.refs():
                if not isinstance(ref, ArrayElemRef):
                    continue
                if ref.symbol.name in self.afold_arrays:
                    raise _Bail("fold array read outside its fold")
                self._add_read(ref, self._forms(ref, "read"))
        if set(self.afold_arrays) & set(self.written_arrays):
            raise _Bail("array both folded and written")
        # accumulators must not leak into any other statement
        for st in self.steps:
            for name in self.acc_names:
                if st.kind == "reduction" and st.name == name:
                    continue
                if st.kind != "reduction" and st.name == name:
                    raise _Bail("accumulator written outside the fold")
                expr = (
                    st.red_expr
                    if st.kind in ("reduction", "afold", "sfold")
                    else st.rhs
                )
                for ref in expr.refs():
                    if isinstance(ref, ScalarRef) and ref.symbol.name == name:
                        raise _Bail("accumulator read outside the fold")
        # executor positions must not depend on anything the body writes
        mutated = set(self.written_scalars) | self.acc_names
        if self.subscript_scalars & mutated:
            raise _Bail("subscript depends on a scalar written in body")
        for st in self.steps:
            info = sim.compiled.executors.get(st.sid)
            if info is None:
                raise _Bail("no executor info")
            for dim in info.position:
                if dim.kind == "pos" and dim.form is not None:
                    for sym in dim.form.symbols:
                        if sym.value is None and (
                            sym.name == self.v or sym.name in mutated
                        ):
                            raise _Bail("executor varies inside the loop")

    def _forms(self, ref: ArrayElemRef, what: str) -> list:
        forms = [affine_form(s) for s in ref.subscripts]
        if any(f is None for f in forms):
            raise _Bail(f"non-affine {what} subscript")
        for f in forms:
            _check_form_resolvable(f, (self.v,), self.subscript_scalars)
        return forms

    def _add_fold(self, st: _Step, k: int, forms, op: str | None) -> None:
        """A fold into one array element: ``afold`` for a reduction
        update with operator ``op``; ``sfold`` (``op`` None) for a store
        every lane makes to the same element, which only a serial fold
        ``A(c) = A(c) OP e`` replays."""
        canon = tuple(_canon_form(f) for f in forms)
        for cand in (op,) if op else tuple(_RED_UFUNC):
            e = _afold_operand(st.rhs, st.name, canon, cand)
            if e is not None:
                break
        if e is None:
            raise _Bail(
                "unrecognized array fold update" if op
                else "store not injective in the loop var"
            )
        st.kind = "afold" if op else "sfold"
        st.red_op = cand
        st.red_expr = e
        if st.name in self.afold_arrays:
            raise _Bail("array folded twice")
        self.afold_arrays[st.name] = k
        self._add_ref(st.stmt.lhs, forms, canon)

    # ------------------------------------------------------------------

    def _fetch_schedule(self, ctx: _InnerCtx, rank: int, env) -> list:
        """Order the recorded fetches exactly as the per-iteration path
        would have issued them and precompute each one's coalescing key
        and startup flag (peeked — nothing is mutated until commit)."""
        sim = self.sim
        tape_len = len(ctx.tape)
        entries = []
        for (name, elem), rec in ctx.fetches.items():
            tag, src, value, sid, rid, stmt = rec
            v, k, _q = tag
            flat = v * tape_len + ctx.tape_pos[k]
            event = sim._events.get((sid, rid))
            if event is None:
                # raw coalescing keys embed the full env — including
                # the takeover variable, which tier 2 sets per
                # iteration and we do not
                raise _Bail("fetch without a placed event")
            outer = hoisted_loop_vars(event, stmt)
            if self.v in outer:
                raise _Bail("fetch key varies per lane")
            key = (
                "evt",
                event.ordinal,
                src,
                rank,
                tuple(env.get(nm, 0) for nm in outer),
            )
            entries.append((tag, flat, key, src, sid, rid, name, elem, value))
        entries.sort(key=lambda e: e[0])
        seen_new: set = set()
        global_seen = sim._fetch_keys_seen
        out = []
        for tag, flat, key, src, sid, rid, name, elem, value in entries:
            startup = key not in global_seen and key not in seen_new
            if startup:
                seen_new.add(key)
            out.append((flat, key, startup, src, sid, rid, name, elem, value))
        return out

    def _commit_fetching_tape(
        self, rank: int, ctx: _InnerCtx, n: int, fetch_plan: list
    ) -> None:
        """Charge the rank's compute tape with the fetch messages
        replayed at their exact per-iteration positions.  Left folds
        compose, so splitting the tape at each message reproduces the
        interleaved ``charge_compute``/``charge_message_amortized``
        sequence bit for bit; ``compute_time`` sees no messages and is
        folded in one piece."""
        sim = self.sim
        clocks = sim.clocks
        stats = sim.stats
        memory = sim.memories[rank]
        full = clocks.tile(clocks.tape(ctx.tape), n)
        if full.size:
            clocks.compute_time[rank] = sequential_sum(
                clocks.compute_time[rank], full
            )
        prev = 0
        for flat, key, startup, src, sid, rid, name, elem, value in fetch_plan:
            if flat > prev:
                clocks.time[rank] = sequential_sum(
                    clocks.time[rank], full[prev:flat]
                )
                prev = flat
            clocks.charge_message_amortized(src, rank, 1, startup)
            if startup:
                sim._fetch_keys_seen.add(key)
                stats.messages += 1
            stats.record_fetch((sid, rid), 1)
            memory.arrays[name][elem] = value
            memory.valid[name][elem] = True
            memory.versions[name] += 1
        if prev < full.shape[0]:
            clocks.time[rank] = sequential_sum(clocks.time[rank], full[prev:])

    def prepare(self, low: int, high: int, step: int, env) -> Callable:
        n = slab_trip_count(low, high, step)
        sim = self.sim
        if n == 0:
            return _commit_nothing
        steps = self.steps
        rank_sets: list[list[int]] = []
        exec_sets: list[set] = []
        for st in steps:
            ranks = sim.executor_ranks(st.stmt, env)
            if not ranks:
                raise _Bail("empty executor set")
            rank_sets.append(ranks)
            exec_sets.append(set(ranks))
        for info in self.regions.values():
            first = exec_sets[info.write_steps[0]]
            for k in info.write_steps[1:]:
                if exec_sets[k] != first:
                    raise _Bail("array writers differ in executor set")
        participants = sorted(set().union(*exec_sets))
        sub_env = env
        if self.subscript_scalars:
            # subscripts referencing memory scalars: every participant
            # must hold the same valid integral value (per-iteration
            # semantics read the rank's own copy each time)
            sub_env = dict(env)
            for nm in sorted(self.subscript_scalars):
                if nm in env:
                    continue
                val = _MISSING
                for r in participants:
                    memory = sim.memories[r]
                    if not memory.scalar_is_valid(nm):
                        raise _Bail(f"subscript scalar {nm} invalid")
                    got = memory.scalars[nm]
                    if val is _MISSING:
                        val = got
                    elif got != val:
                        raise _Bail(f"subscript scalar {nm} diverges")
                if not float(val).is_integer():
                    raise _Bail(f"subscript scalar {nm} not integral")
                sub_env[nm] = int(val)
        iv = low + step * np.arange(n, dtype=np.int64)
        offs = self._lane_offsets({None: {self.v: iv}}, sub_env)
        self._check_disjoint(offs, n)
        ctxs: dict[int, _InnerCtx] = {}
        with np.errstate(over="ignore", invalid="ignore"):
            for r in participants:
                ctx = _InnerCtx(self, r, iv, env, n, offs)
                for k, st in enumerate(steps):
                    ctx.process(st, r in exec_sets[k], k)
                ctxs[r] = ctx
        if any(ctx.fetches for ctx in ctxs.values()):
            if len(participants) != 1:
                # cross-rank message/compute interleaving would need
                # the per-instance global order; leave it to tier 2
                raise _Bail("fetching takeover with multiple executors")
            fetch_plan = self._fetch_schedule(
                ctxs[participants[0]], participants[0], env
            )
        else:
            fetch_plan = None

        def commit():
            memories = sim.memories
            clocks = sim.clocks
            for r in participants:
                tape = ctxs[r].tape
                if fetch_plan is not None:
                    self._commit_fetching_tape(r, ctxs[r], n, fetch_plan)
                elif tape:
                    clocks.charge_compute_tape(
                        r, clocks.tile(clocks.tape(tape), n)
                    )
            for key, info in self.regions.items():
                name = key[0]
                w_ranks = rank_sets[info.write_steps[0]]
                wset = exec_sets[info.write_steps[0]]
                off = offs[info.ref0]
                bump = n * len(info.write_steps)
                for r in w_ranks:
                    memory = memories[r]
                    memory.arrays[name][off] = ctxs[r].array_shadow[key]
                    memory.valid[name][off] = True
                    memory.versions[name] += bump
                if len(w_ranks) < len(memories):
                    for r2, memory in enumerate(memories):
                        if r2 not in wset:
                            memory.valid[name][off] = False
                            memory.versions[name] += bump
            for name, last_k in self.written_scalars.items():
                ranks = rank_sets[last_k]
                rset = exec_sets[last_k]
                for r in ranks:
                    memories[r].scalar_store(
                        name, ctxs[r].scalar_shadow[name][-1].item()
                    )
                if len(ranks) < len(memories):
                    for r2, memory in enumerate(memories):
                        if r2 not in rset:
                            memory.scalar_invalidate(name)
            for k, st in enumerate(steps):
                if st.kind == "reduction":
                    for r in rank_sets[k]:
                        memories[r].scalar_store(
                            st.name, ctxs[r].red_results[st.name].item()
                        )
                elif st.kind == "afold":
                    off = offs[st.stmt.lhs.ref_id]
                    for r in rank_sets[k]:
                        memory = memories[r]
                        memory.arrays[st.name][off] = (
                            ctxs[r].afold_results[k].item()
                        )
                        memory.valid[st.name][off] = True
                        memory.versions[st.name] += n
                    # private accumulation: non-executors keep their
                    # copies untouched, exactly like scalar reductions
                elif st.kind == "sfold":
                    # a plain owner-computes store, just serialized:
                    # non-executors are invalidated once per iteration
                    off = offs[st.stmt.lhs.ref_id]
                    wset = exec_sets[k]
                    for r in rank_sets[k]:
                        memory = memories[r]
                        memory.arrays[st.name][off] = (
                            ctxs[r].afold_results[k].item()
                        )
                        memory.valid[st.name][off] = True
                        memory.versions[st.name] += n
                    if len(wset) < len(memories):
                        for r2, memory in enumerate(memories):
                            if r2 not in wset:
                                memory.valid[st.name][off] = False
                                memory.versions[st.name] += n
            sim.slab_instances += n * len(steps)

        return commit


class _ColumnCtx(_Ctx):
    """Evaluation over the columns of a column-style nest: one lane per
    outer iteration, each column executed by its owner rank."""

    def __init__(self, plan: "_NestPlan", jvec: np.ndarray, env,
                 exec_col: np.ndarray, cols_of: dict[int, np.ndarray]):
        self.plan = plan
        self.jvec = jvec
        self.env = env
        self.nj = jvec.size
        self.exec_col = exec_col
        self.cols_of = cols_of
        self.scalar_cache: dict[str, tuple] = {}

    def owner_scalar(self, name: str) -> tuple:
        """A scalar the nest does not write, one lane per column, read
        from the column owner's copy; an invalid copy would fetch per
        iteration, so the takeover declines."""
        cached = self.scalar_cache.get(name)
        if cached is None:
            memories = self.plan.sim.memories
            values = {}
            for r in self.cols_of:
                if not memories[r].scalar_is_valid(name):
                    raise _Bail(f"scalar {name} read would fetch")
                values[r] = memories[r].scalars[name]
            kinds = {isinstance(v, int) for v in values.values()}
            if len(kinds) != 1:
                raise _Bail(f"scalar {name} mixes types across ranks")
            is_int = kinds.pop()
            vec = np.empty(self.nj, dtype=np.int64 if is_int else np.float64)
            for r, cols in self.cols_of.items():
                vec[cols] = values[r]
            cached = (vec, is_int)
            self.scalar_cache[name] = cached
        return cached


class _ColCtx(_ColumnCtx):
    """Column-lane evaluation: statements processed in sequential order
    with the inner loop unrolled step by step — exact because each
    column reads and writes only its own data (checked statically)."""

    def __init__(self, plan: "ColumnPlan", jvec: np.ndarray, env,
                 exec_col: np.ndarray, cols_of: dict[int, np.ndarray]):
        super().__init__(plan, jvec, env, exec_col, cols_of)
        self._i: int | None = None
        self.tables: dict[str, tuple] = {}
        self.scalar_shadow: dict[str, np.ndarray] = {}

    def loop_vec(self, name: str):
        if name == self.plan.j:
            return self.jvec
        if name == self.plan.i and self._i is not None:
            return self._i
        return None

    def _array(self, name: str) -> tuple:
        t = self.tables.get(name)
        if t is None:
            plan = self.plan
            symbol = plan.array_symbols[name]
            jdim = plan.jdims[name]
            jlow, jhigh = symbol.dims[jdim]
            if int(self.jvec.min()) < jlow or int(self.jvec.max()) > jhigh:
                raise _Bail(f"column index out of bounds for {name}")
            joff = self.jvec - jlow
            other = symbol.extent(1 - jdim)
            memories = plan.sim.memories
            dtype = memories[0].array_dtype(name)
            w = np.empty((other, self.nj), dtype=dtype)
            v = np.empty((other, self.nj), dtype=np.bool_)
            for r, cols in self.cols_of.items():
                data = memories[r].arrays[name]
                valid = memories[r].valid[name]
                jsel = joff[cols]
                if jdim == 1:
                    w[:, cols] = data[:, jsel]
                    v[:, cols] = valid[:, jsel]
                else:
                    w[:, cols] = data[jsel, :].T
                    v[:, cols] = valid[jsel, :].T
            t = (w, v, np.zeros((other, self.nj), dtype=np.bool_), joff)
            self.tables[name] = t
        return t

    def _row(self, ref: ArrayElemRef) -> int:
        plan = self.plan
        vec_vars = {} if self._i is None else {plan.i: self._i}
        idx = _affine_vec(plan.row_forms[ref.ref_id], vec_vars, self.env)
        if isinstance(idx, np.ndarray):
            raise _Bail("row subscript not scalar")
        row_dim = 1 - plan.jdims[ref.symbol.name]
        return _bounds_checked_offset(int(idx), ref.symbol, row_dim)

    def read_scalar(self, ref: ScalarRef):
        name = ref.symbol.name
        if name in self.env:
            v = self.env[name]
            return v, isinstance(v, int)
        vec = self.scalar_shadow.get(name)
        if vec is not None:
            return vec, vec.dtype.kind in "bi"
        if name in self.plan.nest.written_scalars:
            # read before the first in-column write: the value would
            # flow across columns
            raise _Bail(f"scalar {name} read before its definition")
        return self.owner_scalar(name)

    def read_array(self, ref: ArrayElemRef):
        w, v, written, _joff = self._array(ref.symbol.name)
        row = self._row(ref)
        if not bool((v[row] | written[row]).all()):
            raise _Bail(f"array {ref.symbol.name} read would fetch")
        data = w[row].copy()
        return data, data.dtype.kind in "bi"

    def process(self, st: _Step) -> None:
        value, is_int = _eval(st.rhs, self)
        vec = _coerce_vec(value, is_int, st.stype, self.nj)
        if st.kind == "array":
            w, _v, written, _joff = self._array(st.name)
            row = self._row(st.stmt.lhs)
            w[row] = vec
            written[row] = True
        else:
            self.scalar_shadow[st.name] = vec


class _NestPlan:
    """What :class:`ColumnPlan` and :class:`TriangularPlan` share: the
    :class:`_Nest` shape, one :class:`_Step` per statement, and the
    column layout, owner stores and invalidations of a takeover."""

    #: which :class:`_Nest` rules apply: the flattened (triangular) nest
    flat = False

    def __init__(self, slab: "SlabExecutor", loop: LoopStmt):
        sim = slab.sim
        self.sim = sim
        self.fast = slab.fast
        self.loop = loop
        nest = _Nest(
            loop, sim.compiled.executors, sim._reduction_updates,
            sim.grid.rank, flat=self.flat,
            runs_everywhere=sim._runs_everywhere,
        )
        if nest.pos_form is None:
            raise _Bail("no point owner position")
        if nest.inner.stmt_id in sim._reductions_by_loop:
            raise _Bail("inner loop combines a reduction")
        self.nest = nest
        self.j, self.i, self.inner = nest.j, nest.i, nest.inner
        self.pre, self.body, self.post = (
            [self._step(s) for s in stmts]
            for stmts in (nest.pre, nest.body, nest.post)
        )

    def _step(self, stmt: AssignStmt) -> _Step:
        dt = self.fast._dt.get(stmt.stmt_id)
        if dt is None:
            raise _Bail("statement not lowered")
        st = _Step(stmt, dt)
        st.kind = "array" if isinstance(stmt.lhs, ArrayElemRef) else "scalar"
        st.repl = stmt.stmt_id in self.nest.repl
        return st

    def _place(self, low: int, step: int, nj: int, env) -> tuple:
        """Lay out the ``nj`` columns: their ``j`` values, executing
        ranks, and each rank's columns."""
        sim = self.sim
        jvec = low + step * np.arange(nj, dtype=np.int64)
        pos = _affine_vec(self.nest.pos_form, {self.j: jvec}, env)
        pos = np.asarray(pos, dtype=np.int64)
        if pos.ndim == 0:
            pos = np.full(nj, int(pos), dtype=np.int64)
        fmt = self.nest.pos_fmt
        if pos.size and (int(pos.min()) < 0 or int(pos.max()) >= fmt.extent):
            raise _Bail("executor position out of range")
        owner = np.asarray(self.fast.etables.owner_table(fmt), dtype=np.int64)
        rank_of = np.asarray(
            [sim.grid.rank_of((c,)) for c in range(sim.grid.shape[0])],
            dtype=np.int64,
        )
        exec_col = rank_of[owner[pos]]
        cols_of = {
            int(r): np.nonzero(exec_col == r)[0]
            for r in np.unique(exec_col)
        }
        return jvec, exec_col, cols_of

    def _bound(self, expr, env):
        """An inner bound, evaluated once (checked invariant) and
        uncharged, exactly like the per-iteration walker's
        ``eval_bound``."""
        try:
            return self.fast.eval_bound(expr, env)
        except _BOUND_ERRORS:
            raise _Bail("inner bounds not evaluable") from None

    def _inner_step(self, env):
        si = 1 if self.inner.step is None else self._bound(self.inner.step, env)
        if si == 0:
            raise _Bail("zero inner step")
        return si

    def _commit_owned(self, name: str, idx: tuple, values: np.ndarray,
                      owners: np.ndarray, ranks, weight: int = 1) -> None:
        """Each lane's owner stores its value at element ``idx`` of the
        lane; every other rank's copy of the element is invalidated.
        Each lane counts ``weight`` write instances."""
        memories = self.sim.memories
        for r in ranks:
            lanes = np.nonzero(owners == r)[0]
            if not lanes.size:
                continue
            sel = tuple(o[lanes] for o in idx)
            memory = memories[r]
            memory.arrays[name][sel] = values[lanes]
            memory.valid[name][sel] = True
            memory.versions[name] += lanes.size * weight
        if self.sim.grid.size > 1:
            for r2, memory in enumerate(memories):
                lanes = np.nonzero(owners != r2)[0]
                if not lanes.size:
                    continue
                memory.valid[name][tuple(o[lanes] for o in idx)] = False
                memory.versions[name] += lanes.size * weight

    def _commit_owner_scalar(self, name: str, colvec: np.ndarray,
                             cols_of: dict, last_rank: int) -> None:
        """Every column's owner stores its own last value of a scalar
        (``colvec``: one value per column) — the stored value persists
        even once a later column invalidates it; only the last column's
        owner ends valid."""
        memories = self.sim.memories
        for r, cols in cols_of.items():
            memories[r].scalar_store(name, colvec[cols[-1]].item())
        if self.sim.grid.size > 1:
            for r2, memory in enumerate(memories):
                if r2 != last_rank:
                    memory.scalar_invalidate(name)


class ColumnPlan(_NestPlan):
    """Column-wise execution of an outer loop wrapping one sequential
    inner loop: the outer iterations (columns) are the lanes; the inner
    loop runs step by step with each statement vectorized across all
    columns at once.  Exact because every array reference touches only
    its own column and every statement executes on that column's owner
    (both checked statically), so the columns evolve independently in
    program order."""

    def __init__(self, slab: "SlabExecutor", loop: LoopStmt):
        super().__init__(slab, loop)
        self.jdims = self.nest.jdims
        self.array_symbols: dict[str, Any] = {}
        #: ref_id -> subscript form of the row (non-column) dimension
        self.row_forms: dict[int, Any] = {}
        for st in self.pre + self.body + self.post:
            refs = [st.stmt.lhs] if st.kind == "array" else []
            refs.extend(
                r for r in st.rhs.refs() if isinstance(r, ArrayElemRef)
            )
            for ref in refs:
                name = ref.symbol.name
                self.array_symbols.setdefault(name, ref.symbol)
                row = affine_form(ref.subscripts[1 - self.jdims[name]])
                for sym, _c in row.coeffs:
                    # the inner index, or an env-resolved outer index
                    if sym.value is None and not sym.is_loop_var:
                        raise _Bail(
                            f"row subscript depends on scalar {sym.name}"
                        )
                self.row_forms[ref.ref_id] = row

    # ------------------------------------------------------------------

    def prepare(self, low: int, high: int, step: int, env) -> Callable:
        nj = slab_trip_count(low, high, step)
        sim = self.sim
        if nj == 0:
            return _commit_nothing
        jvec, exec_col, cols_of = self._place(low, step, nj, env)
        li = self._bound(self.inner.low, env)
        hi = self._bound(self.inner.high, env)
        si = self._inner_step(env)
        nsteps = slab_trip_count(li, hi, si)
        ctx = _ColCtx(self, jvec, env, exec_col, cols_of)
        with np.errstate(over="ignore", invalid="ignore"):
            for st in self.pre:
                ctx.process(st)
            for t in range(nsteps):
                ctx._i = li + t * si
                for st in self.body:
                    ctx.process(st)
            ctx._i = None
            for st in self.post:
                ctx.process(st)

        def commit():
            clocks = sim.clocks
            seq = clocks.cat([
                clocks.tape([st.dt for st in self.pre]),
                clocks.tile(
                    clocks.tape([st.dt for st in self.body]), nsteps
                ),
                clocks.tape([st.dt for st in self.post]),
            ])
            if seq.size:
                for r, cols in cols_of.items():
                    clocks.charge_compute_tape(r, clocks.tile(seq, cols.size))
            for name, (w, _v, written, joff) in ctx.tables.items():
                if not written.any():
                    continue
                rws, cs = np.nonzero(written)
                idx = (
                    (rws, joff[cs]) if self.jdims[name] == 1
                    else (joff[cs], rws)
                )
                self._commit_owned(
                    name, idx, w[rws, cs], exec_col[cs], cols_of
                )
            last_rank = int(exec_col[-1])
            for name, vec in ctx.scalar_shadow.items():
                self._commit_owner_scalar(name, vec, cols_of, last_rank)
            if self.i not in env:
                # the walker's per-iteration epilogue would have left
                # the inner index at its final value
                env[self.i] = li + nsteps * si
            sim.slab_instances += nj * (
                len(self.pre) + len(self.post) + nsteps * len(self.body)
            )

        return commit


class _TriCtx(_ColumnCtx):
    """Flattened-lane evaluation of one triangular/imperfect nest: the
    prologue and epilogue run with one lane per outer iteration
    (column), the inner body with one lane per (outer, inner) instance.
    Every lane executes on its column's owner, so evaluation is global
    and per-rank state is gathered lane-wise from the owning rank."""

    #: statement phases, in execution order
    PRE, BODY, POST = 0, 1, 2

    def __init__(self, plan: "TriangularPlan", jvec, iflat, jflat,
                 widths, env, exec_col, cols_of, offs):
        super().__init__(plan, jvec, env, exec_col, cols_of)
        self.iflat = iflat
        self.jflat = jflat
        self.widths = widths
        self.offs = offs
        self.nflat = iflat.size
        #: owner rank of each flat (body) lane
        self.rank_flat = np.repeat(exec_col, widths)
        #: last flat lane of each column
        self.seg_end = np.cumsum(widths) - 1
        self.phase = self.PRE
        #: the statement being processed is replicated on every rank
        self.cur_repl = False
        #: phase -> scalar name -> lane vector of that phase
        self.scalar_shadow: tuple[dict, dict, dict] = ({}, {}, {})
        self.repl_cache: dict[str, tuple] = {}
        self.array_shadow: dict[tuple, np.ndarray] = {}
        self.tape: tuple[list, list, list] = ([], [], [])

    def _lanes(self) -> int:
        return self.nflat if self.phase == self.BODY else self.nj

    def loop_vec(self, name: str):
        if self.phase == self.BODY:
            if name == self.plan.i:
                return self.iflat
            if name == self.plan.j:
                return self.jflat
        elif name == self.plan.j:
            return self.jvec
        return None

    def _expand(self, vec: np.ndarray, from_phase: int) -> np.ndarray:
        """Carry a scalar's per-phase value forward within each column:
        prologue values repeat across the column's body lanes; body
        values reach the epilogue at each column's final lane."""
        if from_phase == self.phase:
            return vec
        if from_phase == self.PRE and self.phase == self.BODY:
            return np.repeat(vec, self.widths)
        if from_phase == self.PRE and self.phase == self.POST:
            return vec
        if from_phase == self.BODY and self.phase == self.POST:
            return vec[self.seg_end]
        raise _Bail("scalar value flows backward")

    def read_scalar(self, ref: ScalarRef):
        name = ref.symbol.name
        if name in self.env:
            v = self.env[name]
            return v, isinstance(v, int)
        wp = self.plan.scalar_phase.get(name)
        if wp is not None:
            if self.cur_repl and not self.plan.scalar_repl[name]:
                # a replicated reader runs on every rank, but an
                # owner-written scalar is only valid on each column's
                # owner — the other ranks would fetch
                raise _Bail(f"replicated read of owner scalar {name}")
            if wp > self.phase:
                raise _Bail(f"scalar {name} carried across columns")
            vec = self.scalar_shadow[wp].get(name)
            if vec is None:
                # read before the first in-column write: the value
                # would flow in from a previous column
                raise _Bail(f"scalar {name} read before its definition")
            vec = self._expand(vec, wp)
            return vec, vec.dtype.kind in "bi"
        if self.cur_repl:
            # a replicated statement evaluates on every rank with its
            # own copy: all copies must be valid and identical for one
            # vectorized evaluation to stand in for all of them
            cached = self.repl_cache.get(name)
            if cached is None:
                vals = []
                for memory in self.plan.sim.memories:
                    if not memory.scalar_is_valid(name):
                        raise _Bail(f"scalar {name} read would fetch")
                    vals.append(memory.scalars[name])
                kinds = {isinstance(v, int) for v in vals}
                if len(kinds) != 1:
                    raise _Bail(f"scalar {name} mixes types across ranks")
                if any(v != vals[0] for v in vals[1:]):
                    raise _Bail(f"scalar {name} differs across ranks")
                cached = (vals[0], kinds.pop())
                self.repl_cache[name] = cached
            return cached
        vec, is_int = self.owner_scalar(name)
        if self.phase == self.BODY:
            vec = np.repeat(vec, self.widths)
        return vec, is_int

    def _gather(self, name: str, off, owner: np.ndarray):
        """Each lane reads its column owner's copy; any invalid element
        would fetch per-iteration, so the takeover declines."""
        memories = self.plan.sim.memories
        nl = owner.size
        offv = tuple(
            np.broadcast_to(np.asarray(o, dtype=np.int64), (nl,))
            for o in off
        )
        out = np.empty(nl, dtype=memories[0].array_dtype(name))
        for r in np.unique(owner):
            lanes = np.nonzero(owner == r)[0]
            sel = tuple(o[lanes] for o in offv)
            memory = memories[int(r)]
            if not bool(np.all(memory.valid[name][sel])):
                raise _Bail(f"array {name} read would fetch")
            out[lanes] = memory.arrays[name][sel]
        return out, out.dtype.kind in "bi"

    def read_array(self, ref: ArrayElemRef):
        name = ref.symbol.name
        rk = self.plan.read_region.get(ref.ref_id)
        if rk is not None:
            vec = self.array_shadow.get(rk)
            if vec is not None:
                return vec, vec.dtype.kind in "bi"
            # read before this lane's write: pre-state (regions are
            # injective per column, columns are disjoint)
        off = self.offs[ref.ref_id]
        owner = self.rank_flat if self.phase == self.BODY else self.exec_col
        return self._gather(name, off, owner)

    def process(self, st: _Step) -> None:
        self.cur_repl = st.repl
        value, is_int = _eval(st.rhs, self)
        vec = _coerce_vec(value, is_int, st.stype, self._lanes())
        if st.kind == "array":
            self.array_shadow[st.region_key] = vec
        else:
            self.scalar_shadow[self.phase][st.name] = vec
        self.tape[self.phase].append(st.dt)


class TriangularPlan(_NestPlan, _WriteRegions):
    """One takeover for a whole imperfect nest whose inner bounds may be
    affine in the outer variable: per-column slab widths vary with the
    outer index (triangular nests).  The outer iterations are columns
    executed on their owner rank; prologue/epilogue statements get one
    lane per column, the inner body one lane per (outer, inner)
    instance, flattened.  Exact because every reference touches only
    its own column and regions are injective within it — anything
    runtime-dependent (validity, bounds, widths, region overlap) bails
    to tier 2 before any mutation."""

    flat = True

    def __init__(self, slab: "SlabExecutor", loop: LoopStmt):
        super().__init__(slab, loop)
        self._init_regions()
        self.scalar_phase: dict[str, int] = {}
        self.scalar_repl: dict[str, bool] = {}
        phased = [
            (st, ph)
            for ph, steps in ((0, self.pre), (1, self.body), (2, self.post))
            for st in steps
        ]
        for st, ph in phased:
            if st.kind == "scalar":
                got = self.scalar_phase.setdefault(st.name, ph)
                if got != ph:
                    raise _Bail("scalar written in two phases")
                was = self.scalar_repl.setdefault(st.name, st.repl)
                if was != st.repl:
                    raise _Bail("scalar written by mixed executor kinds")
                continue
            # arrays are written in the inner body only (the nest shape)
            forms = self._forms(st.stmt.lhs)
            canon = tuple(_canon_form(f) for f in forms)
            if (st.name, canon) not in self.regions and not any(
                self.i in _free_names(f) for f in forms
            ):
                raise _Bail("store not injective in the inner var")
            self._add_write(st, ph, forms, canon, lanes=True)
        for st, ph in phased:
            for ref in st.rhs.refs():
                if isinstance(ref, ArrayElemRef):
                    self._add_read(ref, self._forms(ref), lanes=ph == 1)

    def _forms(self, ref: ArrayElemRef) -> list:
        # affine per the nest shape; ``i``-free outside the inner body
        forms = [affine_form(s) for s in ref.subscripts]
        for f in forms:
            _check_form_resolvable(f, (self.i, self.j))
        return forms

    # ------------------------------------------------------------------

    def prepare(self, low: int, high: int, step: int, env) -> Callable:
        nj = slab_trip_count(low, high, step)
        sim = self.sim
        if nj == 0:
            return _commit_nothing
        jvec, exec_col, cols_of = self._place(low, step, nj, env)
        # per-column inner bounds — the triangular part
        si = int(self._inner_step(env))
        jvar = {self.j: jvec}
        li = np.broadcast_to(
            np.asarray(_affine_vec(self.nest.low_form, jvar, env)), (nj,)
        ).astype(np.int64)
        hi = np.broadcast_to(
            np.asarray(_affine_vec(self.nest.high_form, jvar, env)), (nj,)
        ).astype(np.int64)
        widths = slab_trip_count(li, hi, si)
        if bool((widths == 0).any()):
            # a column with no inner iterations still runs its prologue
            # and epilogue; keep the uncommon shape on tier 2
            raise _Bail("empty inner slab")
        nflat = int(widths.sum())
        seg_start = np.cumsum(widths) - widths
        jflat = np.repeat(jvec, widths)
        iflat = np.repeat(li, widths) + si * (
            np.arange(nflat, dtype=np.int64) - np.repeat(seg_start, widths)
        )
        offs = self._lane_offsets(
            {True: {self.i: iflat, self.j: jflat}, False: jvar}, env
        )
        self._check_disjoint(offs, nflat)
        ctx = _TriCtx(
            self, jvec, iflat, jflat, widths, env, exec_col, cols_of, offs
        )
        with np.errstate(over="ignore", invalid="ignore"):
            for st in self.pre:
                ctx.process(st)
            ctx.phase = ctx.BODY
            for st in self.body:
                ctx.process(st)
            ctx.phase = ctx.POST
            for st in self.post:
                ctx.process(st)

        def commit():
            memories = sim.memories
            clocks = sim.clocks
            # each rank's tier-2 tape: its own columns run every
            # statement, foreign columns only the replicated ones
            own = tuple(
                clocks.tape([st.dt for st in steps])
                for steps in (self.pre, self.body, self.post)
            )
            foreign = tuple(
                clocks.tape([st.dt for st in steps if st.repl])
                for steps in (self.pre, self.body, self.post)
            )
            if any(f.size for f in foreign):
                ranks = range(len(memories))
            else:
                ranks = cols_of
            for r in ranks:
                parts = []
                for c in (
                    range(nj) if ranks is not cols_of else cols_of[r]
                ):
                    pre_dts, body_dts, post_dts = (
                        own if int(exec_col[c]) == r else foreign
                    )
                    parts.append(pre_dts)
                    parts.append(clocks.tile(body_dts, int(widths[c])))
                    parts.append(post_dts)
                seq = clocks.cat(parts) if parts else own[0][:0]
                if seq.size:
                    clocks.charge_compute_tape(r, seq)
            for key, info in self.regions.items():
                offv = tuple(
                    np.broadcast_to(np.asarray(o, dtype=np.int64), (nflat,))
                    for o in offs[info.ref0]
                )
                self._commit_owned(
                    key[0], offv, ctx.array_shadow[key], ctx.rank_flat,
                    cols_of, len(info.write_steps),
                )
            last_rank = int(exec_col[-1])
            for name, wp in self.scalar_phase.items():
                vec = ctx.scalar_shadow[wp].get(name)
                if vec is None:
                    continue
                if self.scalar_repl[name]:
                    # every rank executed every write; all copies end
                    # valid, holding the last column's value
                    v = vec[-1].item()
                    for memory in memories:
                        memory.scalar_store(name, v)
                    continue
                colvec = vec[ctx.seg_end] if wp == 1 else vec
                self._commit_owner_scalar(name, colvec, cols_of, last_rank)
            if self.i not in env:
                # the walker's per-iteration epilogue leaves the inner
                # index at the last column's final value
                env[self.i] = int(li[-1] + widths[-1] * si)
            sim.slab_instances += nj * (
                len(self.pre) + len(self.post)
            ) + nflat * len(self.body)

        return commit


# ---------------------------------------------------------------------------
# Executor
# ---------------------------------------------------------------------------


class SlabExecutor:
    """Tier-3 entry point: owns the eligibility report and one runtime
    plan per loop, attempts takeovers, and falls back on any bail."""

    #: consecutive prepare bails after which a nest that never committed
    #: is demoted to tier 2 for the rest of the run
    GIVE_UP_AFTER = 8

    def __init__(self, fast):
        self.fast = fast
        self.sim = fast.sim
        sim = self.sim
        report = getattr(sim.compiled, "slabs", None)
        if report is None or report.ir_epoch != sim.proc.ir_epoch:
            reduction_ids = {
                s.stmt_id
                for red in sim.compiled.ctx.reductions
                for s in red.update_stmts
            }
            report = classify_procedure(
                sim.proc,
                sim.compiled.executors,
                sim.compiled.comm.events,
                reduction_ids,
                grid_rank=sim.grid.rank,
            )
        self.report = report
        self._plans: dict[int, Any] = {}
        self._eligible = report.eligible_loops()
        #: satellite fix for the DGEFA regression: a program whose
        #: report has no eligible nest at all pays nothing per loop
        #: entry (one flag check instead of a plan lookup + prepare)
        self.enabled = bool(self._eligible)
        #: per-loop consecutive prepare bails; a nest that bails this
        #: many times without ever committing is demoted to tier 2 for
        #: the rest of the run (prepare overhead was pure loss)
        self._bail_counts: dict[int, int] = {}
        self._committed: set[int] = set()

    def _record_bail(self, stmt: LoopStmt, reason: str) -> None:
        sim = self.sim
        if sim.metrics is not None:
            sim.metrics.inc(f"slab.bail[{reason}]")
            sim.metrics.inc(f"slab.fallback[loop=S{stmt.stmt_id}]")
        if sim.tracer.enabled:
            sim.tracer.instant(
                "slab.bail", cat="sim", loop=stmt.stmt_id, reason=reason
            )

    def _build(self, stmt: LoopStmt):
        sid = stmt.stmt_id
        # Plan construction only reads the IR and the static reports;
        # a bail means "this loop is tier 2", a numeric-domain error in
        # a closed form means the same — anything else (NameError,
        # TypeError, ...) is a genuine bug and must surface.
        try:
            if self.report.inner.get(sid) == "ok":
                return InnerPlan(self, stmt)
            if self.report.column.get(sid) == "ok":
                return ColumnPlan(self, stmt)
            if self.report.triangular.get(sid) == "ok":
                return TriangularPlan(self, stmt)
        except _Bail as bail:
            self._record_bail(stmt, str(bail))
            return None
        except (ArithmeticError, ValueError, OverflowError):
            self._record_bail(stmt, "plan construction error")
            return None
        return None

    def _decide(self, sid: int, choice: str) -> None:
        sim = self.sim
        if sim.tier_decisions.get(sid) != choice:
            sim.tier_decisions[sid] = choice
        if sim.metrics is not None:
            sim.metrics.inc(f"tier.decision[loop=S{sid},choice={choice}]")

    def run_loop(self, stmt: LoopStmt, low: int, high: int, step: int,
                 env) -> bool:
        if not self.enabled:
            return False
        sid = stmt.stmt_id
        sim = self.sim
        approved = sim._tier_approved
        if approved is not None and sid not in approved:
            if sid in self._eligible:
                # the TierPlan predicted tier 2 to win here
                self._decide(sid, "lowered")
            return False
        plan = self._plans.get(sid, _MISSING)
        if plan is _MISSING:
            plan = self._build(stmt)
            self._plans[sid] = plan
        if plan is None:
            return False
        # Phase A (prepare) mutates nothing: a bail or a numeric-domain
        # error falls back to tier 2, which replays the loop exactly;
        # genuine programming errors propagate.
        try:
            commit = plan.prepare(low, high, step, env)
        except _Bail as bail:
            self._record_bail(stmt, str(bail))
            self._decide(sid, "lowered")
            if sid not in self._committed:
                bails = self._bail_counts.get(sid, 0) + 1
                self._bail_counts[sid] = bails
                if bails >= self.GIVE_UP_AFTER:
                    # never succeeded: stop paying prepare per entry
                    self._plans[sid] = None
            return False
        except (ArithmeticError, ValueError, OverflowError):
            self._record_bail(stmt, "prepare error")
            self._decide(sid, "lowered")
            return False
        # Phase B (commit) is outside the net: a failure here would mean
        # corrupted state and must surface, not silently re-execute.
        commit()
        self._committed.add(sid)
        self._decide(sid, "slab")
        if sim.metrics is not None:
            sim.metrics.inc(f"slab.takeover[loop=S{sid}]")
        if sim.tracer.enabled:
            sim.tracer.instant(
                "slab.takeover", cat="sim", loop=sid, low=low,
                high=high, step=step,
            )
        return True
