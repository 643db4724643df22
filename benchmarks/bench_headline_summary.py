"""Abstract / §4.5 headline — DBG + selective THP versus 4KB pages and
unbounded THP, with the huge-page budget.

Paper bands: 1.26-1.57x speedup over 4KB pages alone, 77.3-96.3% of
unbounded huge-page performance, using huge pages for only 0.58-2.92%
of the application memory.
"""

import time

from repro.experiments import figures
from repro.experiments.reporting import geomean


def test_headline_summary(
    benchmark, runner, workloads, datasets, report, sweep_record
):
    # Time each *simulated* cell (cache and journal hits bypass
    # _execute_cell) so the sweep record carries a per-cell geomean
    # alongside the whole-figure wall time.
    durations: list[float] = []
    original = runner._execute_cell

    def timed(*args, **kwargs):
        start = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            durations.append(time.perf_counter() - start)

    runner._execute_cell = timed
    figure_start = time.perf_counter()
    try:
        result = benchmark.pedantic(
            figures.headline_summary,
            args=(runner,),
            kwargs={"workloads": workloads, "datasets": datasets},
            rounds=1,
            iterations=1,
        )
    finally:
        runner._execute_cell = original
    figure_seconds = time.perf_counter() - figure_start
    sweep_record(
        "headline_summary",
        {
            "workers": runner.run_config.workers,
            "figure_seconds": figure_seconds,
            "cells_simulated": len(durations),
            "geomean_cell_seconds": (
                geomean(durations) if durations else None
            ),
        },
    )
    report(result)
    speedups = [row["selective_speedup"] for row in result.rows]
    shares = [row["pct_of_unbounded"] for row in result.rows]
    budgets = [row["huge_budget_frac"] for row in result.rows]
    benchmark.extra_info["speedup_range"] = (
        f"{min(speedups):.2f}-{max(speedups):.2f}"
    )
    benchmark.extra_info["unbounded_share_range"] = (
        f"{min(shares):.1%}-{max(shares):.1%}"
    )
    benchmark.extra_info["budget_range"] = (
        f"{min(budgets):.2%}-{max(budgets):.2%}"
    )
    # The reproduction's bands must bracket the paper's story: clear
    # speedup over 4KB, most of unbounded THP, tiny huge-page budget.
    assert geomean(speedups) > 1.05
    assert min(shares) > 0.6
    assert max(budgets) < 0.08
