"""Tests for the resilient experiment harness: retries, budgets,
graceful degradation into :class:`CellFailure`, and the cache fixes."""

from dataclasses import replace

import pytest

from repro.config import scaled, tiny
from repro.errors import (
    CellBudgetExceededError,
    ExperimentError,
    InjectedFaultError,
    OutOfMemoryError,
)
from repro.faults import FaultPlan
from repro.experiments.figures import (
    ablation_alloc_order_census,
    ablation_promotion_path,
    fig04_access_breakdown,
    fig07_pressure_alloc_order,
    speedup,
)
from repro.experiments.harness import (
    RETRY_BACKOFF_BASE_CYCLES,
    CellFailure,
    ExperimentRunner,
    retry_backoff_cycles,
)
from repro.experiments.policies import POLICIES
from repro.experiments.runconfig import RunConfig
from repro.experiments.scenarios import constrained, fresh, oversubscribed


@pytest.fixture
def runner():
    """A TINY-profile runner over the fast test dataset."""
    return ExperimentRunner(
        config=tiny(), datasets=("test-small",), pagerank_iterations=2
    )


def run_bfs(runner, policy="base4k", scenario=None):
    return runner.run_cell(
        "bfs", "test-small", POLICIES[policy], scenario or fresh()
    )


class TestCacheFixes:
    def test_clear_cache_drops_both_caches(self, runner):
        """Regression: clear_cache() used to leave _graph_cache behind."""
        run_bfs(runner)
        assert runner._cache and runner._graph_cache
        runner.clear_cache()
        assert runner._cache == {}
        assert runner._graph_cache == {}

    def test_unknown_reordering_suppresses_context(self, runner):
        with pytest.raises(ExperimentError) as exc:
            runner._prepared_graph("test-small", "bogus", weighted=False)
        assert "unknown reordering" in str(exc.value)
        # `raise ... from None`: the internal KeyError is not chained.
        assert exc.value.__suppress_context__
        assert exc.value.__cause__ is None


class TestRetries:
    def test_backoff_is_exponential(self):
        assert retry_backoff_cycles(1) == RETRY_BACKOFF_BASE_CYCLES
        assert retry_backoff_cycles(3) == 4 * RETRY_BACKOFF_BASE_CYCLES

    def test_transient_glitch_survived_by_retry(self, runner):
        # staging fires once (max=1): attempt 1 dies, attempt 2 passes.
        runner.run_config = runner.run_config.replace(
            faults=FaultPlan.parse("staging:1.0:max=1")
        )
        metrics = run_bfs(runner)
        assert metrics.ok
        assert metrics.attempts == 2
        assert metrics.retry_cycles == RETRY_BACKOFF_BASE_CYCLES
        assert metrics.kernel_cycles > 0

    def test_retry_backoff_charged_to_kernel_time(self, runner):
        baseline = run_bfs(runner)
        retried_runner = ExperimentRunner(
            config=tiny(),
            run_config=RunConfig(faults=FaultPlan.parse("staging:1.0:max=1")),
        )
        retried = run_bfs(retried_runner)
        assert (
            retried.kernel_cycles
            == baseline.kernel_cycles + RETRY_BACKOFF_BASE_CYCLES
        )

    def test_retries_exhausted_becomes_cell_failure(self, runner):
        runner.run_config = runner.run_config.replace(
            faults=FaultPlan.parse("staging:1.0")
        )
        result = run_bfs(runner)
        assert isinstance(result, CellFailure)
        assert not result.ok
        assert result.attempts == runner.run_config.retries + 1
        assert result.site is not None and result.site.value == "staging"
        assert result.error == "InjectedFaultError"
        assert result.label == "FAILED(staging)"
        assert runner.failures == [result]

    def test_strict_mode_propagates(self, runner):
        runner.run_config = runner.run_config.replace(
            faults=FaultPlan.parse("staging:1.0")
        )
        runner.capture_failures = False
        with pytest.raises(InjectedFaultError):
            run_bfs(runner)

    def test_failure_is_cached(self, runner):
        runner.run_config = runner.run_config.replace(
            faults=FaultPlan.parse("staging:1.0")
        )
        first = run_bfs(runner)
        second = run_bfs(runner)
        assert first is second
        assert len(runner.failures) == 1

    def test_fault_plan_in_cache_key(self, runner):
        clean = run_bfs(runner)
        runner.run_config = runner.run_config.replace(
            faults=FaultPlan.parse("staging:1.0")
        )
        faulted = run_bfs(runner)
        assert clean.ok and not faulted.ok


class TestDeterministicFailures:
    def test_budget_overrun_not_retried(self, runner):
        runner.run_config = runner.run_config.replace(cell_budget=10)
        result = run_bfs(runner)
        assert isinstance(result, CellFailure)
        assert result.error == "CellBudgetExceededError"
        assert result.attempts == 1  # deterministic: no retry
        assert result.label == "FAILED(CellBudgetExceededError)"

    def test_budget_in_cache_key(self, runner):
        assert run_bfs(runner).ok
        runner.run_config = runner.run_config.replace(cell_budget=10)
        assert not run_bfs(runner).ok

    def test_oom_captured_from_pressured_cell(self):
        runner = ExperimentRunner(
            config=replace(tiny(), swap_enabled=False),
            datasets=("test-small",),
        )
        result = run_bfs(runner, scenario=oversubscribed(0.5))
        assert isinstance(result, CellFailure)
        assert result.error == "OutOfMemoryError"
        assert result.attempts == 1

    def test_oom_propagates_in_strict_mode(self):
        runner = ExperimentRunner(
            config=replace(tiny(), swap_enabled=False),
            datasets=("test-small",),
            capture_failures=False,
        )
        with pytest.raises(OutOfMemoryError):
            run_bfs(runner, scenario=oversubscribed(0.5))

    def test_budget_error_from_machine_level(self, small_graph):
        from repro.machine.machine import Machine
        from repro.workloads.registry import create_workload

        machine = Machine(tiny())
        with pytest.raises(CellBudgetExceededError):
            machine.run(
                create_workload("bfs", small_graph), access_budget=10
            )


class TestCellFailureAbsorption:
    def make_failure(self):
        return CellFailure(
            workload="bfs", dataset="test-small", policy="thp",
            scenario="fresh", error="InjectedFaultError", message="boom",
        )

    def test_speedup_over_propagates(self):
        failure = self.make_failure()
        assert failure.speedup_over(failure) is failure

    def test_metrics_and_comparisons_raise(self):
        """A failure carries no metrics: a reduce that reads one off it,
        or compares it with a number, fails loudly."""
        failure = self.make_failure()
        with pytest.raises(AttributeError):
            failure.kernel_cycles
        with pytest.raises(TypeError):
            failure > 0.9
        with pytest.raises(TypeError):
            sorted([failure, 2.0, 1.0])

    def test_renders_as_failed_marker(self):
        assert str(self.make_failure()) == "FAILED(InjectedFaultError)"


class TestGracefulFigureBatch:
    """The ISSUE's acceptance scenario: fig07 with compaction:1.0."""

    def test_fig07_completes_with_partial_data(self):
        plan = FaultPlan.parse("compaction:1.0")
        faulted = ExperimentRunner(run_config=RunConfig(faults=plan))
        result = fig07_pressure_alloc_order(
            faulted, workloads=("bfs",), datasets=("test-small",)
        )
        # The batch completed and rendered despite failing cells.
        (row,) = result.rows
        rendered = result.render()
        assert "FAILED(compaction)" in rendered
        failed = result.failed_cells()
        assert failed and all(
            f.site.value == "compaction" for f in failed
        )
        assert all(f.scenario.startswith("constrained") for f in failed)
        # JSON export degrades to marker strings instead of crashing.
        assert '"FAILED(compaction)"' in result.to_json()

        # Unaffected cells are bit-for-bit identical to a no-fault run.
        clean = ExperimentRunner()
        clean_result = fig07_pressure_alloc_order(
            clean, workloads=("bfs",), datasets=("test-small",)
        )
        (clean_row,) = clean_result.rows
        for column in ("base4k_pressured", "thp_ideal"):
            assert row[column] == clean_row[column]
        # And the underlying unaffected cell metrics match exactly.
        base = run_bfs(clean, scenario=constrained(0.5))
        base_faulted = run_bfs(faulted, scenario=constrained(0.5))
        assert base.summary() == base_faulted.summary()
        assert (
            base.per_array_translation()
            == base_faulted.per_array_translation()
        )

    def test_census_marks_its_failed_cells(self):
        """Both census cells fail under compaction:1.0; each row shows
        the failure instead of an empty set of array columns."""
        runner = ExperimentRunner(
            run_config=RunConfig(faults=FaultPlan.parse("compaction:1.0"))
        )
        result = ablation_alloc_order_census(
            runner, datasets=("test-small",)
        )
        assert len(result.failed_cells()) == 2
        for row in result.rows:
            assert str(row["property_array"]) == "FAILED(compaction)"
        assert "FAILED(compaction)" in result.render()

    def test_promotion_prop_huge_carries_the_failure(self):
        runner = ExperimentRunner(
            run_config=RunConfig(faults=FaultPlan.parse("compaction:1.0"))
        )
        (row,) = ablation_promotion_path(
            runner, datasets=("test-small",)
        ).rows
        assert isinstance(row["fault+compact"], CellFailure)
        assert row["fault+compact_prop_huge"] is row["fault+compact"]

    def test_fig04_row_per_failed_cell(self):
        """Every fig04 baseline fails under staging:1.0: one marked row
        per (workload, dataset), not an empty table."""
        runner = ExperimentRunner(
            run_config=RunConfig(faults=FaultPlan.parse("staging:1.0"))
        )
        result = fig04_access_breakdown(runner, datasets=("test-small",))
        assert [(r["workload"], r["array"]) for r in result.rows] == [
            ("bfs", "-"), ("sssp", "-"), ("pagerank", "-"),
        ]
        assert len(result.failed_cells()) == 3
        for row in result.rows:
            assert str(row["access_share"]) == "FAILED(staging)"
            assert row["walk_share"] is row["access_share"]


class TestSpeedupHelper:
    """``figures.speedup``: a failed baseline shows through before the
    run, which ``RunMetrics.speedup_over`` alone cannot do."""

    def failure(self, policy):
        return CellFailure(
            workload="bfs", dataset="test-small", policy=policy,
            scenario="fresh", error="InjectedFaultError", message="boom",
        )

    def test_failed_baseline_first(self, runner):
        run = run_bfs(runner, policy="thp")
        base = self.failure("base4k")
        assert speedup(run, base) is base
        assert speedup(self.failure("thp"), base) is base

    def test_failed_run(self, runner):
        run = self.failure("thp")
        assert speedup(run, run_bfs(runner)) is run

    def test_both_ok(self, runner):
        run, base = run_bfs(runner, policy="thp"), run_bfs(runner)
        assert speedup(run, base) == run.speedup_over(base)

    def test_runner_speedup_with_failed_baseline(self, runner):
        base = self.failure("base4k")
        runner._cache[
            runner._cell_key("bfs", "test-small", POLICIES["base4k"], fresh())
        ] = base
        assert runner.speedup(
            "bfs", "test-small", POLICIES["thp"], fresh(), POLICIES["base4k"]
        ) is base
