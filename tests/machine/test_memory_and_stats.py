"""Unit tests for node memory, clocks, and traffic statistics."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.ir import parse_and_build
from repro.machine import NodeMemory, initialize_array
from repro.machine.stats import Clocks, TrafficStats
from repro.mapping import ProcessorGrid, resolve_mappings
from repro.model import MachineModel


SRC = """
PROGRAM T
  REAL A(12), E(12)
!HPF$ ALIGN E(i) WITH A(*)
!HPF$ DISTRIBUTE (BLOCK) :: A
END PROGRAM
"""


@pytest.fixture
def setup():
    proc = parse_and_build(SRC)
    grid = ProcessorGrid(name="P", shape=(4,))
    mappings = resolve_mappings(proc, grid)
    memories = [NodeMemory(r, proc) for r in range(4)]
    return proc, grid, mappings, memories


class TestNodeMemory:
    def test_array_store_and_read(self, setup):
        proc, grid, mappings, memories = setup
        memories[0].array_store("A", (3,), 7.5)
        assert memories[0].array_is_valid("A", (3,))
        assert memories[0].array_value("A", (3,)) == 7.5

    def test_invalidate(self, setup):
        proc, grid, mappings, memories = setup
        memories[0].array_store("A", (3,), 7.5)
        memories[0].array_invalidate("A", (3,))
        assert not memories[0].array_is_valid("A", (3,))

    def test_scalar_roundtrip(self, setup):
        proc, grid, mappings, memories = setup
        memories[1].scalar_store("X", 3)
        assert memories[1].scalar_is_valid("X")
        assert memories[1].scalar_value("X") == 3

    def test_invalid_scalar_read_raises(self, setup):
        proc, grid, mappings, memories = setup
        with pytest.raises(SimulationError):
            memories[2].scalar_value("NOPE")

    def test_offset_respects_lower_bounds(self):
        proc = parse_and_build(
            "PROGRAM T\n  REAL A(0:5)\nEND PROGRAM\n"
        )
        memory = NodeMemory(0, proc)
        assert memory.offset("A", (0,)) == (0,)
        assert memory.offset("A", (5,)) == (5,)


class TestInitializeArray:
    def test_validity_follows_ownership(self, setup):
        proc, grid, mappings, memories = setup
        values = np.arange(12, dtype=float)
        initialize_array(memories, mappings["A"], values)
        for rank in range(4):
            owned = set(mappings["A"].owned_global_indices(rank))
            for i in range(1, 13):
                assert memories[rank].array_is_valid("A", (i,)) == ((i,) in owned)

    def test_replicated_valid_everywhere(self, setup):
        proc, grid, mappings, memories = setup
        initialize_array(memories, mappings["E"], np.zeros(12))
        assert all(m.array_is_valid("E", (7,)) for m in memories)

    def test_shape_mismatch_rejected(self, setup):
        proc, grid, mappings, memories = setup
        with pytest.raises(SimulationError):
            initialize_array(memories, mappings["A"], np.zeros(5))


class TestClocks:
    def test_compute_charging(self):
        clocks = Clocks(2, MachineModel())
        clocks.charge_compute(0, 100)
        assert clocks.time[0] > 0 and clocks.time[1] == 0
        assert clocks.elapsed == clocks.time[0]

    def test_message_synchronizes(self):
        machine = MachineModel()
        clocks = Clocks(2, machine)
        clocks.charge_compute(0, 10**6)
        t0 = clocks.time[0]
        clocks.charge_message(0, 1, 10)
        # The receiver waits for the (later) sender.
        assert clocks.time[1] == pytest.approx(t0 + machine.message_time(10))

    def test_amortized_startup(self):
        machine = MachineModel()
        clocks = Clocks(2, machine)
        clocks.charge_message_amortized(0, 1, 1, startup=True)
        with_startup = clocks.time[1]
        clocks2 = Clocks(2, machine)
        clocks2.charge_message_amortized(0, 1, 1, startup=False)
        assert clocks2.time[1] < with_startup

    def test_collective_synchronizes_all(self):
        clocks = Clocks(4, MachineModel())
        clocks.charge_compute(2, 10**6)
        clocks.charge_collective([0, 1, 2, 3], 1, "reduce")
        assert len({round(t, 12) for t in clocks.time}) == 1

    def test_collective_single_rank_free(self):
        clocks = Clocks(4, MachineModel())
        clocks.charge_collective([1], 100, "bcast")
        assert clocks.elapsed == 0.0

    def test_totals(self):
        clocks = Clocks(2, MachineModel())
        clocks.charge_compute(0, 10)
        clocks.charge_message(0, 1, 1)
        assert clocks.total_compute > 0
        assert clocks.total_comm > 0


class TestTrafficStats:
    def test_fetch_recording(self):
        stats = TrafficStats()
        stats.record_fetch((1, 2), elements=3)
        stats.record_fetch(None)
        assert stats.fetches == 2
        assert stats.unexpected_fetches == 1
        assert stats.elements == 4
        assert stats.per_event_fetches[(1, 2)] == 1


class TestTrace:
    def test_simulator_records_reduces(self):
        from repro.core import CompilerOptions, compile_source
        from repro.machine import simulate
        from repro.obs import Tracer
        from repro.programs import tomcatv_inputs, tomcatv_source

        compiled = compile_source(
            tomcatv_source(n=8, niter=1, procs=4), CompilerOptions()
        )
        tracer = Tracer()
        simulate(compiled, tomcatv_inputs(8), tracer=tracer)
        reduces = [
            e for e in tracer.to_chrome()["traceEvents"]
            if e["name"] == "reduce"
        ]
        assert reduces
        assert all(e["cat"] == "comm" and e["ph"] == "i" for e in reduces)
