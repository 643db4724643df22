"""Tests for the extension policies (managers, hugetlb, autotuner) in
the experiment harness, plus the advisor-driven reorder helper.

Policy construction goes through the zoo registry
(:mod:`repro.policy.registry`); the run-time managers are the THP
policy's hook.
"""

import dataclasses

import pytest

from repro.config import tiny
from repro.experiments.figures import recommended_reorder
from repro.experiments.harness import ExperimentRunner
from repro.experiments.policies import (
    POLICIES,
    hugetlb_policy,
    selective_policy,
)
from repro.experiments.scenarios import fresh
from repro.mem.heuristics import HugePageManager
from repro.mem.thp import ThpMode
from repro.policy.registry import get_policy


@pytest.fixture
def runner():
    return ExperimentRunner(
        config=tiny(), datasets=("test-small",), pagerank_iterations=1
    )


class TestPolicyFactories:
    def test_manager_policies_carry_factories(self):
        for policy in (
            get_policy("ingens"),
            get_policy("hawkeye"),
            get_policy("hawkeye-bits"),
            get_policy("autotuner"),
        ):
            # The manager is the THP policy's hook, on top of
            # promotion-only THP.
            thp = policy.thp
            assert isinstance(thp.hooks, HugePageManager)
            # Fresh per run: the value is frozen, so no run can leave
            # state in it.
            with pytest.raises(dataclasses.FrozenInstanceError):
                thp.hooks = None
            assert thp.mode is ThpMode.ALWAYS
            assert thp.fault_alloc is False

    def test_plain_policies_have_no_manager(self):
        assert not isinstance(
            POLICIES["thp"].thp.hooks, HugePageManager
        )

    def test_hugetlb_policy_plan(self):
        policy = get_policy("hugetlb:fraction=0.5,reorder=original")
        assert policy.plan.hugetlb_fractions
        assert not policy.plan.advise_fractions
        assert policy.thp.mode is ThpMode.NEVER

    def test_hugetlb_helper_still_plain(self):
        # Constructs the same policy the registry's `hugetlb` entry
        # delegates to.
        policy = hugetlb_policy(0.5, reorder="original")
        assert policy.plan.hugetlb_fractions


class TestHarnessIntegration:
    def test_manager_cell_runs(self, runner):
        metrics = runner.run_cell(
            "bfs", "test-small", get_policy("hawkeye"), fresh()
        )
        assert metrics.policy_label == "hawkeye"

    def test_hugetlb_cell_reserves_and_runs(self, runner):
        metrics = runner.run_cell(
            "bfs",
            "test-small",
            get_policy("hugetlb:fraction=1.0,reorder=original"),
            fresh(),
        )
        # test-small's property array is smaller than one TINY huge
        # chunk, so no chunk qualifies — the run must still complete.
        assert metrics.workload == "bfs"

    def test_manager_and_selective_cells_are_distinct(self, runner):
        a = runner.run_cell(
            "bfs", "test-small", get_policy("hawkeye"), fresh()
        )
        b = runner.run_cell(
            "bfs", "test-small", selective_policy(0.5), fresh()
        )
        assert a is not b


class TestRecommendedReorder:
    def test_returns_known_ordering(self, runner):
        reorder = recommended_reorder(runner, "test-small")
        assert reorder in ("original", "dbg")
