"""Property: the batched sweep fast path is byte-for-bit invisible.

Machine parameters are *write-only* during a simulated run — they price
the virtual clocks but never steer control flow, fetch schedules, or
tier decisions — so a lane-vector simulation over N machine variants
must reproduce each variant's dedicated scalar run exactly.  These
tests byte-compare (canonical JSON) the batched sweep's per-lane
records against per-point ``tier="auto"`` simulations for the three
paper kernels over a ≥7-point grid each, and hypothesis properties
hammer the lane arithmetic (whole runs, and every pricing method lane
for lane) with randomized machine parameters."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.driver import CompilerOptions, compile_source
from repro.core.locality import TransferPattern
from repro.ir.build import make_inputs
from repro.machine.batchexec import VectorMachine
from repro.machine.simulator import simulate
from repro.model import SP2, MachineModel
from repro.programs import appsp_source, dgefa_source, tomcatv_source
from repro.sweep import SweepSpec, run_sweep

FAST = dataclasses.replace(SP2, name="fast-net", alpha=5e-6, beta=1.0 / 300e6)
SLOW = dataclasses.replace(SP2, name="slow-cpu", flop_time=1.0 / 5e6)
WAN = dataclasses.replace(SP2, name="wan", alpha=5e-3, beta=1.0 / 1e6)

#: program name -> (source builder, procs values); each grid is
#: procs x machines >= 7 points (the ISSUE's parity floor)
GRIDS = {
    "tomcatv": (lambda p: tomcatv_source(n=10, niter=1, procs=p), (1, 2, 4)),
    "dgefa": (lambda p: dgefa_source(n=10, procs=p), (1, 2, 4)),
    "appsp": (
        lambda p: appsp_source(nx=8, ny=8, nz=8, niter=1, procs=p),
        (2, 4),
    ),
}
MACHINES = (SP2, FAST, SLOW, WAN)


def _canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True)


def _reference_stats(source: str, options: CompilerOptions, seed: int):
    """What one dedicated scalar grid point produces: fresh compile,
    deterministic inputs, tier="auto" simulation."""
    compiled = compile_source(source, options)
    inputs = make_inputs(compiled.proc, seed)
    sim = simulate(compiled, inputs, tier="auto")
    return sim.canonical_stats(), sim.elapsed, sim.stats.messages


@pytest.mark.parametrize("program", sorted(GRIDS))
def test_batched_sweep_matches_per_point_simulation(program):
    builder, procs = GRIDS[program]
    spec = SweepSpec(
        programs={program: builder},
        procs=procs,
        axes={"machine": MACHINES},
        mode="simulate",
        seed=3,
    )
    jobs = spec.jobs()
    assert len(jobs) >= 7
    results = run_sweep(spec, workers=0, mode="batched")
    assert [r.label for r in results] == [j.label for j in jobs]
    for job, result in zip(jobs, results):
        assert result.ok, result.error
        assert result.worker == "batched"
        stats, elapsed, messages = _reference_stats(
            job.source, job.options, job.seed
        )
        assert _canonical(result.canonical_stats) == _canonical(stats)
        assert result.elapsed == elapsed  # bitwise, not approx
        assert result.messages == messages


COMPILED = None


def _compiled():
    """One shared tomcatv compile for the hypothesis property (machine
    parameters cannot influence compilation)."""
    global COMPILED
    if COMPILED is None:
        COMPILED = compile_source(
            tomcatv_source(n=8, niter=1, procs=2),
            CompilerOptions(num_procs=2),
        )
    return COMPILED


def _inputs(compiled, seed=11):
    return make_inputs(compiled.proc, seed)


@st.composite
def machine_models(draw):
    return MachineModel(
        name="drawn",
        alpha=draw(st.floats(min_value=1e-9, max_value=1e-2)),
        beta=draw(st.floats(min_value=1e-10, max_value=1e-5)),
        flop_time=draw(st.floats(min_value=1e-10, max_value=1e-6)),
        element_bytes=draw(st.sampled_from((4, 8))),
        stmt_overhead=draw(st.floats(min_value=0.0, max_value=1e-6)),
    )


@settings(max_examples=10, deadline=None)
@given(models=st.lists(machine_models(), min_size=1, max_size=4))
def test_lane_vector_clocks_match_scalar_runs(models):
    compiled = _compiled()
    sim = simulate(
        compiled, _inputs(compiled), machine=VectorMachine(models),
        tier="auto",
    )
    for lane, model in enumerate(models):
        scalar = simulate(
            compiled, _inputs(compiled), machine=model, tier="auto"
        )
        assert _canonical(sim.clocks.lane_snapshot(lane)) == _canonical(
            scalar.canonical_stats()["clocks"]
        )
        assert sim.clocks.lane_elapsed(lane) == scalar.elapsed


def _lanes_equal(vector, scalars):
    got = np.broadcast_to(np.asarray(vector), (len(scalars),))
    return all(got[m] == s for m, s in enumerate(scalars))


SPANS = st.integers(min_value=0, max_value=128)


@settings(max_examples=200, deadline=None)
@given(
    models=st.lists(machine_models(), min_size=1, max_size=4),
    n=st.integers(min_value=-2, max_value=10**7),
    span=SPANS,
    data=st.data(),
)
def test_vector_pricing_matches_scalar_models(models, n, span, data):
    """Every VectorMachine pricing method is its scalar MachineModel
    counterpart lane for lane (``==``), for a span shared by every lane
    and for a span per lane: the hand-mirrored arithmetic order is
    checked, not trusted."""
    machine = VectorMachine(models)
    lane_spans = np.asarray(
        data.draw(st.lists(SPANS, min_size=len(models), max_size=len(models)))
    )
    flops = data.draw(st.integers(min_value=0, max_value=500))
    instances = data.draw(st.integers(min_value=0, max_value=10**6))

    for method in ("message_time", "shift_time"):
        assert _lanes_equal(
            getattr(machine, method)(n), [getattr(m, method)(n) for m in models]
        ), method
    assert _lanes_equal(
        machine.compute_time(flops, instances),
        [m.compute_time(flops, instances) for m in models],
    )
    for method in ("broadcast_time", "reduce_time", "gather_time",
                   "alltoall_time"):
        assert _lanes_equal(
            getattr(machine, method)(n, span),
            [getattr(m, method)(n, span) for m in models],
        ), method
        assert _lanes_equal(
            getattr(machine, method)(n, lane_spans),
            [getattr(m, method)(n, int(p)) for m, p in zip(models, lane_spans)],
        ), method
    for kind in ("none", "shift", "broadcast", "general"):
        pattern = TransferPattern(kind=kind)
        assert _lanes_equal(
            machine.transfer_time(pattern, n, span),
            [m.transfer_time(pattern, n, span) for m in models],
        ), kind
