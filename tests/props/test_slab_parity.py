"""Property: the tier-3 slab engine is bit-for-bit invisible.

Randomized affine loop nests — block/cyclic/replicated mappings,
guards, reductions, negative steps — run through all three engines
(slab kernels, lowered closures, tree-walker).  Clocks, traffic
statistics, and gathered arrays must be identical down to the last bit;
nests the slab engine cannot take must fall back without a trace.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CompilerOptions, compile_source
from repro.machine import simulate

DISTRIBUTIONS = [
    "!HPF$ DISTRIBUTE (*, BLOCK) :: A\n",  # column-owned: slab-eligible
    "!HPF$ DISTRIBUTE (*, CYCLIC) :: A\n",  # cyclic columns: eligible
    "!HPF$ DISTRIBUTE (BLOCK, *) :: A\n",  # row-owned: executor varies
    "",  # replicated
]


@st.composite
def affine_nests(draw):
    """Random two-level nests over aligned 2-D arrays: affine stencil
    reads, optional guard, optional MAX reduction, either sweep
    direction."""
    n = draw(st.integers(min_value=6, max_value=10))
    dist = draw(st.sampled_from(DISTRIBUTIONS))
    oi = draw(st.integers(min_value=-1, max_value=1))
    oj = draw(st.integers(min_value=-1, max_value=1))
    guarded = draw(st.booleans())
    reduced = draw(st.booleans())
    downward = draw(st.booleans())
    body = [
        f"      A(i,j) = B(i {'+' if oi >= 0 else '-'} {abs(oi)},"
        f" j {'+' if oj >= 0 else '-'} {abs(oj)}) + 0.5 * C(i,j)",
        "      C(i,j) = A(i,j) * 1.25 + B(i,j)",
    ]
    if guarded:  # an IfStmt keeps the nest off the slab path entirely
        body.append("      IF (B(i,j) .GT. 1.5) A(i,j) = C(i,j)")
    if reduced:
        body.append("      S = MAX(S, ABS(B(i,j)))")
    irange = "n - 1, 2, -1" if downward else "2, n - 1"
    # an ALIGN chain needs a DISTRIBUTE target; fully replicated
    # programs simply carry no directives at all
    directives = (
        "!HPF$ ALIGN (i,j) WITH A(i,j) :: B, C\n" + dist if dist else ""
    )
    source = (
        f"PROGRAM R\n  PARAMETER (n = {n})\n"
        "  REAL A(n,n), B(n,n), C(n,n)\n  REAL S\n"
        + directives
        + "  S = 0.0\n"
        "  DO j = 2, n - 1\n"
        f"    DO i = {irange}\n"
        + "".join(line + "\n" for line in body)
        + "    END DO\n  END DO\nEND PROGRAM\n"
    )
    eligible = not guarded and dist in DISTRIBUTIONS[:2]
    return source, n, eligible


def run_three_ways(source, n, procs):
    rng = np.random.default_rng(n * 31 + procs)
    inputs = {
        name: rng.uniform(1, 2, (n, n)) for name in ("A", "B", "C")
    }
    compiled = compile_source(source, CompilerOptions(num_procs=procs))
    slab = simulate(compiled, inputs, tier="slab")
    lowered = simulate(compiled, inputs, tier="lowered")
    walker = simulate(compiled, inputs, tier="interpreted")
    return slab, lowered, walker


def assert_invisible(slab, other):
    assert slab.clocks.snapshot() == other.clocks.snapshot()
    assert slab.stats.as_dict() == other.stats.as_dict()
    for sm, om in zip(slab.memories, other.memories):
        for name in om.arrays:
            assert sm.arrays[name].tobytes() == om.arrays[name].tobytes()
            assert sm.valid[name].tobytes() == om.valid[name].tobytes()
        assert sm.scalars == om.scalars
        assert sm.scalar_valid == om.scalar_valid
    for name in ("A", "B", "C"):
        assert slab.gather(name).tobytes() == other.gather(name).tobytes()


@given(affine_nests(), st.integers(min_value=1, max_value=4))
@settings(max_examples=40, deadline=None)
def test_slab_engine_is_bit_for_bit_invisible(case, procs):
    source, n, eligible = case
    slab, lowered, walker = run_three_ways(source, n, procs)
    assert_invisible(slab, lowered)
    assert_invisible(slab, walker)
    if eligible:
        # the slab path must actually have executed these nests
        assert slab.slab_instances > 0
    assert lowered.slab_instances == 0


TRI_DISTS = [
    "!HPF$ DISTRIBUTE (*, BLOCK) :: A\n",
    "!HPF$ DISTRIBUTE (*, CYCLIC) :: A\n",
]


@st.composite
def triangular_nests(draw):
    """Imperfect triangular nests in the dgefa mould: inner bounds
    depend on the outer loop variable, with optional scalar prologue
    and epilogue statements and an optional reduction into one element
    of the owned column."""
    n = draw(st.integers(min_value=8, max_value=12))
    dist = draw(st.sampled_from(TRI_DISTS))
    lower = draw(st.booleans())
    prologue = draw(st.booleans())
    epilogue = draw(st.booleans())
    col_reduce = draw(st.booleans())
    irange = "j, n - 1" if lower else "2, j"
    lines = []
    if prologue:
        lines.append("    S = 0.5 * j")
    lines.append(f"    DO i = {irange}")
    if col_reduce:
        # reduction into one element of the owned column, dgefa-style:
        # A appears only as the fold accumulator
        lines.append(
            "      C(i,j) = B(i,j) * 1.25 + S" if prologue
            else "      C(i,j) = B(i,j) * 1.25 + C(i,j)"
        )
        lines.append("      A(1,j) = A(1,j) + B(i,j)")
    else:
        lines.append("      A(i,j) = B(i,j) * 1.25 + C(i,j)")
        lines.append(
            "      C(i,j) = A(i,j) + S" if prologue
            else "      C(i,j) = A(i,j) + B(i,j)"
        )
    lines.append("    END DO")
    if epilogue:
        lines.append("    T = 1.0 + 0.25 * j")
    source = (
        f"PROGRAM R\n  PARAMETER (n = {n})\n"
        "  REAL A(n,n), B(n,n), C(n,n)\n  REAL S, T\n"
        "!HPF$ ALIGN (i,j) WITH A(i,j) :: B, C\n"
        + dist
        + "  S = 0.0\n  T = 0.0\n"
        "  DO j = 2, n - 1\n"
        + "".join(line + "\n" for line in lines)
        + "  END DO\nEND PROGRAM\n"
    )
    return source, n, dist is TRI_DISTS[0]


@given(triangular_nests(), st.integers(min_value=1, max_value=4))
@settings(max_examples=40, deadline=None)
def test_triangular_nests_are_bit_for_bit_invisible(case, procs):
    source, n, block_dist = case
    slab, lowered, walker = run_three_ways(source, n, procs)
    assert_invisible(slab, lowered)
    assert_invisible(slab, walker)
    assert lowered.slab_instances == 0
    if block_dist:
        # column-block triangular nests are squarely in the classifier's
        # extended repertoire: the slab path must actually run
        assert slab.slab_instances > 0


@st.composite
def column_nests(draw):
    """Column-owned nests whose inner loop carries a dependence, in the
    mould of tomcatv's tridiagonal sweeps: the inner loop is ineligible
    on its own, so ColumnPlan steps it in order across all columns at
    once.  Optional boundary store before the inner loop, scalar
    temporary inside it, second coupled recurrence, and store after
    it; either sweep direction."""
    n = draw(st.integers(min_value=8, max_value=12))
    dist = draw(st.sampled_from(TRI_DISTS))
    downward = draw(st.booleans())
    prologue = draw(st.booleans())
    temp = draw(st.booleans())
    coupled = draw(st.booleans())
    epilogue = draw(st.booleans())
    prev, edge, irange = (
        ("i + 1", "n - 1", "n - 2, 2, -1") if downward
        else ("i - 1", "2", "3, n - 1")
    )
    lines = []
    if prologue:
        lines.append(f"    A({edge},j) = B({edge},j) * 0.5")
    lines.append(f"    DO i = {irange}")
    if temp:
        lines.append("      T = B(i,j) * 0.5 + C(i,j)")
    lines.append(
        f"      A(i,j) = A({prev},j) * 0.5 + {'T' if temp else 'B(i,j)'}"
    )
    if coupled:
        lines.append(f"      C(i,j) = C({prev},j) - A(i,j) * 0.25")
    lines.append("    END DO")
    if epilogue:
        lines.append("    C(1,j) = A(2,j) + B(1,j)")
    source = (
        f"PROGRAM R\n  PARAMETER (n = {n})\n"
        "  REAL A(n,n), B(n,n), C(n,n)\n  REAL T\n"
        "!HPF$ ALIGN (i,j) WITH A(i,j) :: B, C\n"
        + dist
        + "  DO j = 2, n - 1\n"
        + "".join(line + "\n" for line in lines)
        + "  END DO\nEND PROGRAM\n"
    )
    return source, n


@given(column_nests(), st.integers(min_value=2, max_value=4))
@settings(max_examples=30, deadline=None)
def test_column_nests_are_bit_for_bit_invisible(case, procs):
    source, n = case
    slab, lowered, walker = run_three_ways(source, n, procs)
    assert_invisible(slab, lowered)
    assert_invisible(slab, walker)
    report = slab.compiled.slabs
    assert "ok" not in report.inner.values()  # the recurrence
    (outer,) = [sid for sid, v in report.column.items() if v == "ok"]
    # the whole nest ran as one column takeover
    assert slab.tier_decisions == {outer: "slab"}
    assert slab.slab_instances > 0


@given(triangular_nests(), st.integers(min_value=1, max_value=4))
@settings(max_examples=15, deadline=None)
def test_auto_tier_matches_forced_tiers(case, procs):
    """tier="auto" consults the TierPlan per nest but must stay
    bit-for-bit identical to every forced tier."""
    source, n, _ = case
    rng = np.random.default_rng(n * 31 + procs)
    inputs = {name: rng.uniform(1, 2, (n, n)) for name in ("A", "B", "C")}
    compiled = compile_source(source, CompilerOptions(num_procs=procs))
    auto = simulate(compiled, inputs, tier="auto")
    walker = simulate(compiled, inputs, tier="interpreted")
    assert_invisible(auto, walker)
    assert set(auto.tier_decisions.values()) <= {"slab", "lowered"}


@given(st.integers(min_value=1, max_value=5))
@settings(max_examples=5, deadline=None)
def test_reduction_slab_keeps_combine_tree(procs):
    """A MAX reduction vectorizes its private accumulation but the
    log-tree combine (and its collective charges) must be unchanged."""
    n = 9
    source = (
        f"PROGRAM R\n  PARAMETER (n = {n})\n"
        "  REAL B(n,n)\n  REAL S\n"
        "!HPF$ DISTRIBUTE (*, BLOCK) :: B\n"
        "  S = 0.0\n"
        "  DO j = 2, n - 1\n    DO i = 2, n - 1\n"
        "      S = MAX(S, ABS(B(i,j)))\n"
        "    END DO\n  END DO\nEND PROGRAM\n"
    )
    rng = np.random.default_rng(procs)
    inputs = {"B": rng.uniform(-2, 2, (n, n))}
    compiled = compile_source(source, CompilerOptions(num_procs=procs))
    slab = simulate(compiled, inputs, tier="slab")
    walker = simulate(compiled, inputs, tier="interpreted")
    assert slab.clocks.snapshot() == walker.clocks.snapshot()
    assert slab.stats.as_dict() == walker.stats.as_dict()
    for sm, om in zip(slab.memories, walker.memories):
        assert sm.scalars == om.scalars
        assert sm.scalar_valid == om.scalar_valid
