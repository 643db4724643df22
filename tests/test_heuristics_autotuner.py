"""Tests for the heuristic huge-page managers and the online autotuner."""

import numpy as np
import pytest

from repro.config import tiny
from repro.core.autotuner import OnlineAdvisor
from repro.graph.generators import power_law_graph
from repro.machine.machine import Machine
from repro.mem.heuristics import HotnessManager, UtilizationManager
from repro.mem.thp import ThpMode, ThpPolicy
from repro.workloads.bfs import Bfs


@pytest.fixture
def graph():
    return power_law_graph(
        16384, 131072, alpha=1.0, hub_shuffle=1.0, seed=5
    )


def promotion_thp(manager):
    """THP config for manager runs: no fault-time allocation, promotion
    only through the manager under test (the policy's hook)."""
    return ThpPolicy(
        mode=ThpMode.ALWAYS, fault_alloc=False, khugepaged_enabled=False,
        hooks=manager,
    )


def run_with_manager(graph, manager):
    machine = Machine(tiny(), promotion_thp(manager))
    return machine.run(Bfs(graph))


class TestUtilizationManager:
    def test_promotes_utilized_chunks(self, graph):
        metrics = run_with_manager(graph, UtilizationManager())
        assert metrics.manager_promotions > 0
        assert metrics.huge_bytes > 0

    def test_threshold_blocks_sparse_chunks(self, graph):
        # Threshold above 1.0 is unreachable: nothing promotes.
        metrics = run_with_manager(
            graph, UtilizationManager(utilization_threshold=1.01)
        )
        assert metrics.manager_promotions == 0

    def test_rate_limit(self, graph):
        manager = UtilizationManager(promotions_per_pass=1)
        metrics = run_with_manager(graph, manager)
        # One promotion per BFS level at most.
        assert metrics.manager_promotions <= 64


class TestHotnessManager:
    def test_promotes_hottest_first(self, graph):
        """With a budget of few promotions, the property array (the
        pointer-indirect hot structure) must win them."""
        manager = HotnessManager(promotions_per_pass=1)
        machine = Machine(tiny(), promotion_thp(manager))
        metrics = machine.run(Bfs(graph))
        fractions = metrics.huge_fraction_per_array
        assert fractions["property_array"] > 0.0
        # Property got at least its share before the huge edge array.
        assert (
            fractions["property_array"] >= fractions["edge_array"]
        )

    def test_improves_over_no_manager(self, graph):
        base = Machine(tiny(), ThpPolicy.never()).run(Bfs(graph))
        managed = run_with_manager(graph, HotnessManager())
        assert managed.speedup_over(base) > 1.05
        assert managed.walk_rate < base.walk_rate


class TestOnlineAdvisor:
    def test_targets_property_array_only(self, graph):
        advisor = OnlineAdvisor(warmup_iterations=1)
        machine = Machine(tiny(), promotion_thp(advisor))
        metrics = machine.run(Bfs(graph))
        fractions = metrics.huge_fraction_per_array
        assert fractions["property_array"] > 0.0
        assert fractions["edge_array"] == 0.0
        assert fractions["vertex_array"] == 0.0

    def test_budget_cap(self, graph):
        advisor = OnlineAdvisor(max_chunks=1)
        machine = Machine(tiny(), promotion_thp(advisor))
        metrics = machine.run(Bfs(graph))
        assert metrics.manager_promotions <= 1

    def test_speedup_without_preprocessing(self, graph):
        base = Machine(tiny(), ThpPolicy.never()).run(Bfs(graph))
        advisor = OnlineAdvisor()
        machine = Machine(tiny(), promotion_thp(advisor))
        metrics = machine.run(Bfs(graph))
        assert metrics.preprocess_cycles == 0
        assert metrics.speedup_over(base) > 1.05

    def test_warmup_defers_promotion(self, graph):
        advisor = OnlineAdvisor(warmup_iterations=10_000)
        machine = Machine(tiny(), promotion_thp(advisor))
        metrics = machine.run(Bfs(graph))
        assert metrics.manager_promotions == 0
