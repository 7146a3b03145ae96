"""Unit tests for the procs-lane machine.

:class:`ProcsVectorMachine` carries a per-lane processor count and grid
shape on top of the machine-parameter lanes; the estimator prices a
whole procs vector through it.  The contract under test: each lane is
bitwise what the scalar model would charge at that lane's count."""

import dataclasses

import numpy as np
import pytest

from repro.machine.batchexec import ProcsVectorMachine
from repro.model import SP2

FAST = dataclasses.replace(SP2, name="fast-net", alpha=5e-6, beta=1.0 / 300e6)
WAN = dataclasses.replace(SP2, name="wan", alpha=5e-3, beta=1.0 / 1e6)
MODELS = (SP2, FAST, WAN)
PROCS = (1, 2, 4)


class TestProcsVectorMachine:
    def test_validation(self):
        with pytest.raises(ValueError, match="one count per lane"):
            ProcsVectorMachine(MODELS, procs=(2, 4))
        with pytest.raises(ValueError, match="procs >= 1"):
            ProcsVectorMachine(MODELS, procs=(1, 0, 4))
        with pytest.raises(ValueError, match="one shape per lane"):
            ProcsVectorMachine(MODELS, procs=PROCS, grid_shapes=((1,), (2,)))
        with pytest.raises(ValueError, match="does not hold"):
            ProcsVectorMachine(
                MODELS, procs=PROCS, grid_shapes=((1,), (2,), (2, 3))
            )

    def test_default_grid_shapes_are_1d(self):
        machine = ProcsVectorMachine(MODELS, procs=PROCS)
        assert machine.grid_shapes == ((1,), (2,), (4,))

    def test_explicit_grid_shapes_kept(self):
        machine = ProcsVectorMachine(
            MODELS, procs=(1, 4, 4), grid_shapes=((1,), (2, 2), (4,))
        )
        assert machine.grid_shapes == ((1,), (2, 2), (4,))

    @pytest.mark.parametrize("elements", [1, 10, 4096])
    def test_lane_collectives_match_per_lane_scalar_models(self, elements):
        # the estimator's path: collectives priced at the per-lane counts
        machine = ProcsVectorMachine(MODELS, procs=PROCS)
        counts = machine.procs
        for lane, (model, procs) in enumerate(zip(MODELS, PROCS)):
            assert machine.broadcast_time(elements, counts)[lane] == (
                model.broadcast_time(elements, procs)
            )
            assert machine.reduce_time(elements, counts)[lane] == (
                model.reduce_time(elements, procs)
            )
            assert machine.gather_time(elements, counts)[lane] == (
                model.gather_time(elements, procs)
            )
            assert machine.alltoall_time(elements, counts)[lane] == (
                model.alltoall_time(elements, procs)
            )

    def test_vector_collectives_accept_per_lane_spans(self):
        machine = ProcsVectorMachine(MODELS, procs=PROCS)
        spans = np.asarray([1, 2, 3])
        got = machine.broadcast_time(16, spans)
        for lane, (model, span) in enumerate(zip(MODELS, spans)):
            assert got[lane] == model.broadcast_time(16, int(span))
