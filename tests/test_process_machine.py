"""Tests for the simulated process (translation) and the machine run
loop, on the TINY profile with small graphs."""

import numpy as np
import pytest

from repro.config import tiny
from repro.core.plan import PlacementPlan
from repro.graph.generators import uniform_graph
from repro.machine.machine import Machine
from repro.mem.thp import ThpPolicy
from repro.tlb.trace import AccessStream
from repro.workloads.base import (
    ARRAY_EDGE,
    ARRAY_PROPERTY,
    ARRAY_VALUES,
    ARRAY_VERTEX,
)
from repro.workloads.bfs import Bfs
from repro.workloads.layout import AllocationOrder


@pytest.fixture
def graph():
    """Arrays must span multiple huge chunks on the TINY profile (64KB
    chunks = 8192 elements), so every array is THP-eligible."""
    return uniform_graph(num_vertices=16384, num_edges=65536, seed=9)


def run_machine(graph, thp, plan=None, **kwargs):
    machine = Machine(tiny(), thp)
    workload = Bfs(graph)
    return machine, machine.run(workload, plan=plan, **kwargs)


class TestTranslationKeys:
    def test_base_and_huge_keys(self, graph):
        """Property pages map to huge keys iff the VMM backed them huge."""
        machine = Machine(tiny(), ThpPolicy.madvise())
        workload = Bfs(graph)
        plan = PlacementPlan(
            advise_fractions={ARRAY_PROPERTY: 1.0}, label="p"
        )
        from repro.machine.process import SimProcess
        from repro.mem.vmm import VirtualMemoryManager
        from repro.workloads.layout import MemoryLayout

        vmm = VirtualMemoryManager(
            machine.app_node, machine.thp, machine.config
        )
        process = SimProcess(
            vmm, workload, MemoryLayout(workload), machine.config
        )
        process.allocate_and_touch(plan)
        stream = AccessStream(
            np.array([ARRAY_PROPERTY, ARRAY_EDGE], dtype=np.uint8),
            np.array([0, 0], dtype=np.int64),
        )
        trace = process.translate(stream)
        assert trace.keys[0] & 1 == 1  # property is huge-mapped
        assert trace.keys[1] & 1 == 0  # edge array stayed base
        # Huge key encodes the VMA's huge-page number.
        vma = process.vma_by_array[ARRAY_PROPERTY]
        assert trace.keys[0] >> 1 == vma.start >> machine.config.pages.huge_shift

    def test_distinct_arrays_distinct_pages(self, graph):
        machine = Machine(tiny(), ThpPolicy.never())
        workload = Bfs(graph)
        from repro.machine.process import SimProcess
        from repro.mem.vmm import VirtualMemoryManager
        from repro.workloads.layout import MemoryLayout

        vmm = VirtualMemoryManager(
            machine.app_node, machine.thp, machine.config
        )
        process = SimProcess(
            vmm, workload, MemoryLayout(workload), machine.config
        )
        process.allocate_and_touch(PlacementPlan.none())
        stream = AccessStream(
            np.array(
                [ARRAY_VERTEX, ARRAY_EDGE, ARRAY_PROPERTY], dtype=np.uint8
            ),
            np.zeros(3, dtype=np.int64),
        )
        trace = process.translate(stream)
        assert len(set(trace.keys.tolist())) == 3


class TestTranslationChecks:
    """translate() rejects accesses outside the mapped arrays instead of
    translating them into some other page."""

    @pytest.fixture
    def process(self, graph):
        from repro.machine.process import SimProcess
        from repro.mem.vmm import VirtualMemoryManager
        from repro.workloads.layout import MemoryLayout

        machine = Machine(tiny(), ThpPolicy.always())
        workload = Bfs(graph)
        vmm = VirtualMemoryManager(
            machine.app_node, machine.thp, machine.config
        )
        process = SimProcess(
            vmm, workload, MemoryLayout(workload), machine.config
        )
        process.allocate_and_touch(PlacementPlan.none())
        return process

    @staticmethod
    def _stream(pairs):
        aids, indices = zip(*pairs)
        return AccessStream(
            np.array(aids, dtype=np.uint8), np.array(indices, dtype=np.int64)
        )

    def test_unmapped_array_id_is_named(self, process):
        # BFS maps no values array.
        stream = self._stream([(ARRAY_VERTEX, 0), (ARRAY_VALUES, 3)])
        with pytest.raises(KeyError, match=f"array id {ARRAY_VALUES}"):
            process.translate(stream)

    @pytest.mark.parametrize("index", [-1, -4096, "end", "far"])
    def test_index_outside_array(self, process, graph, index):
        size = graph.num_vertices
        index = {"end": size, "far": size * 1000}.get(index, index)
        stream = self._stream([(ARRAY_PROPERTY, 0), (ARRAY_PROPERTY, index)])
        with pytest.raises(IndexError, match=f"element index {index} "):
            process.translate(stream)

    def test_last_element_is_inside(self, process, graph):
        stream = self._stream([(ARRAY_PROPERTY, graph.num_vertices - 1)])
        assert process.translate(stream).total_accesses == 1

    def test_checked_in_every_chunk(self, process, monkeypatch):
        from repro.machine import process as process_module

        monkeypatch.setattr(process_module, "_CHUNK", 2)
        stream = self._stream([(ARRAY_EDGE, 0)] * 5 + [(ARRAY_EDGE, -1)])
        with pytest.raises(IndexError):
            process.translate(stream)


class TestMachineRun:
    def test_metrics_consistency(self, graph):
        _, metrics = run_machine(graph, ThpPolicy.never(), dataset="t")
        assert metrics.dataset == "t"
        assert metrics.translation.total_accesses > 0
        assert metrics.compute_cycles > 0
        assert metrics.init_cycles > 0
        assert metrics.huge_bytes == 0
        assert metrics.total_cycles == (
            metrics.init_cycles
            + metrics.compute_cycles
            + metrics.preprocess_cycles
        )

    def test_thp_always_backs_everything(self, graph):
        _, metrics = run_machine(graph, ThpPolicy.always())
        fractions = metrics.huge_fraction_per_array
        # The vertex array (2 base pages) is smaller than one huge chunk
        # and therefore never eligible; the large arrays must be backed.
        assert fractions["edge_array"] > 0.8
        assert fractions["property_array"] > 0.8
        assert metrics.huge_footprint_fraction > 0.6

    def test_thp_faster_than_base_when_footprint_exceeds_tlb(self, graph):
        _, base = run_machine(graph, ThpPolicy.never())
        _, thp = run_machine(graph, ThpPolicy.always())
        assert thp.speedup_over(base) > 1.02
        assert thp.walk_rate < base.walk_rate

    def test_madvise_plan_limits_huge_usage(self, graph):
        plan = PlacementPlan(
            advise_fractions={ARRAY_PROPERTY: 1.0}, label="sel"
        )
        _, metrics = run_machine(graph, ThpPolicy.madvise(), plan=plan)
        fractions = metrics.huge_fraction_per_array
        assert fractions["property_array"] == 1.0
        assert fractions["edge_array"] == 0.0
        assert fractions["vertex_array"] == 0.0

    def test_partial_madvise_fraction(self, graph):
        plan = PlacementPlan(
            advise_fractions={ARRAY_PROPERTY: 0.5}, label="half"
        )
        _, metrics = run_machine(graph, ThpPolicy.madvise(), plan=plan)
        assert 0.2 < metrics.huge_fraction_per_array["property_array"] <= 0.8

    def test_machine_state_restored_between_runs(self, graph):
        machine = Machine(tiny(), ThpPolicy.always())
        before = machine.free_bytes()
        machine.run(Bfs(graph))
        assert machine.free_bytes() == before
        metrics_a = machine.run(Bfs(graph))
        metrics_b = machine.run(Bfs(graph))
        assert metrics_a.kernel_cycles == metrics_b.kernel_cycles

    def test_load_bytes_local_consumes_app_node(self, graph):
        machine = Machine(tiny(), ThpPolicy.never())
        free = machine.free_bytes()
        metrics = machine.run(
            Bfs(graph), load_bytes=65536, tmpfs_remote=False
        )
        # Cache evicted at end of run; during the run it was local.
        assert machine.free_bytes() == free
        assert metrics.init_cycles > 0

    def test_preprocess_accesses_charged(self, graph):
        machine = Machine(tiny(), ThpPolicy.never())
        metrics = machine.run(Bfs(graph), preprocess_accesses=1000)
        assert metrics.preprocess_cycles == int(
            1000 * machine.config.cost.mem_access
        )

    def test_allocation_order_recorded_in_layout(self, graph):
        plan = PlacementPlan(
            order=AllocationOrder.PROPERTY_FIRST, label="opt"
        )
        machine = Machine(tiny(), ThpPolicy.always())
        metrics = machine.run(Bfs(graph), plan=plan)
        assert metrics.policy_label == "opt"


class TestOversubscription:
    @pytest.fixture
    def big_graph(self):
        """Large enough that a 16-page deficit leaves plenty resident."""
        return uniform_graph(num_vertices=4096, num_edges=32768, seed=2)

    def test_swap_dominates(self, big_graph):
        machine = Machine(tiny(), ThpPolicy.never())
        workload = Bfs(big_graph)
        from repro.workloads.layout import MemoryLayout

        wss = MemoryLayout(workload).total_bytes
        machine.memhog_leave_free(wss - 16 * 4096)  # 16-page deficit
        machine.finish_setup()
        metrics = machine.run(workload)
        assert metrics.swap_ins > 0
        fresh = Machine(tiny(), ThpPolicy.never()).run(Bfs(big_graph))
        assert metrics.kernel_cycles > 3 * fresh.kernel_cycles

    def test_swap_accounting_in_ledger(self, big_graph):
        machine = Machine(tiny(), ThpPolicy.never())
        workload = Bfs(big_graph)
        from repro.workloads.layout import MemoryLayout

        wss = MemoryLayout(workload).total_bytes
        machine.memhog_leave_free(wss - 16 * 4096)
        machine.finish_setup()
        metrics = machine.run(workload)
        assert metrics.compute_kernel["counts"].get("swap_in", 0) > 0
        assert machine.swap.total_io > 0


class TestScenarioHelpers:
    def test_memhog_and_fragment(self, graph):
        machine = Machine(tiny(), ThpPolicy.always())
        machine.memhog_leave_free(machine.free_bytes() // 2)
        machine.fragment(0.5)
        assert machine.fragmentation_level() > 0.3
        machine.finish_setup()
        assert machine.physical.ledger.total_cycles == 0
