"""Tests for the experiment harness: scenarios, policies, caching,
reporting."""

import pytest

from repro.config import tiny
from repro.experiments.harness import ExperimentRunner
from repro.experiments.policies import POLICIES, selective_policy
from repro.experiments.reporting import format_table, geomean
from repro.experiments.scenarios import (
    SCENARIOS,
    Scenario,
    constrained,
    fragmented,
    fresh,
    oversubscribed,
)
from repro.mem.thp import ThpMode
from repro.policy.registry import get_policy


@pytest.fixture
def runner():
    """A TINY-profile runner over the fast test dataset."""
    return ExperimentRunner(
        config=tiny(), datasets=("test-small",), pagerank_iterations=2
    )


class TestScenarios:
    def test_fresh_is_unpressured(self):
        assert not fresh().is_pressured
        assert fresh().frag_level == 0.0

    def test_constrained(self):
        s = constrained(1.5)
        assert s.is_pressured
        assert s.pressure_gb == 1.5
        assert "1.5" in s.name

    def test_fragmented_defaults_low_pressure(self):
        s = fragmented(0.5)
        assert s.frag_level == 0.5
        assert s.pressure_gb == 3.0

    def test_oversubscribed_is_negative(self):
        assert oversubscribed(0.5).pressure_gb == -0.5

    def test_registry(self):
        assert set(SCENARIOS) == {
            "fresh",
            "high-pressure",
            "low-pressure",
            "frag-50",
            "oversubscribed",
        }

    def test_scenarios_hashable(self):
        assert len({fresh(), constrained(1.0), constrained(1.0)}) == 2


class TestPolicies:
    def test_registry_covers_paper_bars(self):
        for name in (
            "base4k",
            "thp",
            "thp-opt",
            "madv-vertex",
            "madv-edge",
            "madv-values",
            "madv-property",
            "dbg",
            "dbg+thp",
        ):
            assert name in POLICIES

    def test_modes(self):
        assert get_policy("base4k").thp.mode is ThpMode.NEVER
        assert get_policy("thp").thp.mode is ThpMode.ALWAYS
        assert get_policy("madv-property").thp.mode is ThpMode.MADVISE

    def test_policy_factories_return_fresh_objects(self):
        a = get_policy("ingens")
        b = get_policy("ingens")
        assert a.thp is not b.thp
        assert a.thp.hooks is not b.thp.hooks

    def test_selective_policy(self):
        policy = selective_policy(0.2, reorder="original")
        assert policy.thp.mode is ThpMode.MADVISE
        assert policy.plan.reorder == "original"


class TestRunner:
    def test_cell_runs_and_caches(self, runner):
        a = runner.run_cell("bfs", "test-small", POLICIES["base4k"], fresh())
        b = runner.run_cell("bfs", "test-small", POLICIES["base4k"], fresh())
        assert a is b  # cached
        runner.clear_cache()
        c = runner.run_cell("bfs", "test-small", POLICIES["base4k"], fresh())
        assert c is not a
        assert c.kernel_cycles == a.kernel_cycles  # deterministic

    def test_different_policies_different_cells(self, runner):
        a = runner.run_cell("bfs", "test-small", POLICIES["base4k"], fresh())
        b = runner.run_cell("bfs", "test-small", POLICIES["thp"], fresh())
        assert a is not b

    def test_reorder_charges_preprocessing(self, runner):
        run = runner.run_cell("bfs", "test-small", POLICIES["dbg"], fresh())
        assert run.preprocess_cycles > 0
        base = runner.run_cell(
            "bfs", "test-small", POLICIES["base4k"], fresh()
        )
        assert base.preprocess_cycles == 0

    def test_sssp_gets_weighted_graph(self, runner):
        run = runner.run_cell(
            "sssp", "test-small", POLICIES["base4k"], fresh()
        )
        assert run.workload == "sssp"

    def test_pressured_scenario_constrains_memory(self, runner):
        run = runner.run_cell(
            "bfs", "test-small", POLICIES["thp"], constrained(0.5)
        )
        assert run.context["pressure_gb"] == 0.5

    def test_speedup_helper(self, runner):
        s = runner.speedup(
            "bfs",
            "test-small",
            POLICIES["base4k"],
            fresh(),
            POLICIES["base4k"],
        )
        assert s == pytest.approx(1.0)


class TestReporting:
    def test_format_table(self):
        rows = [
            {"a": 1, "b": 0.123456},
            {"a": 22, "b": 7.0},
        ]
        text = format_table(rows, title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "0.123" in text
        assert "22" in text

    def test_format_empty(self):
        assert "(no rows)" in format_table([])

    def test_default_columns_are_every_rows_keys(self):
        """A key only later rows carry still gets a column, placed in
        first-seen order."""
        text = format_table([{"a": 1}, {"a": 2, "b": 3}, {"c": 4, "a": 5}])
        assert text.splitlines()[0].split() == ["a", "b", "c"]

    def test_missing_columns_blank(self):
        text = format_table([{"a": 1}, {"b": 2}], columns=["a", "b"])
        assert "a" in text and "b" in text

    def test_geomean(self):
        assert geomean([2.0, 8.0]) == pytest.approx(4.0)
        assert geomean([]) == 0.0
        assert geomean([1.0, 0.0, 4.0]) == pytest.approx(2.0)
