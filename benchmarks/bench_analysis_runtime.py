"""Analyzer runtime budget guard.

A claim the analyzer makes about its own cost, bounded empirically
alongside the existing <2% MemSan dispatch guard
(``bench_sanitizer_overhead.py``): **the analyzer is cheap enough to
gate CI.**  The full analyzer (every REP rule: the per-file rules plus
REP004's whole-tree fault-site audit) over the whole ``repro`` package
must finish well inside a CI-friendly budget (<10 s).
"""

from __future__ import annotations

import time

from repro.analysis.lint import default_target, lint_paths

ANALYZER_BUDGET_SECONDS = 10.0


def test_analyzer_whole_repo_under_budget():
    # Warm-up parse so interpreter/bytecode-cache effects don't count.
    lint_paths([default_target()], rules=["REP001"])
    start = time.perf_counter()
    findings, errors = lint_paths([default_target()])
    elapsed = time.perf_counter() - start
    print(
        f"\nAnalyzer whole-repo run: {elapsed:.2f}s "
        f"({len(findings)} finding(s), {len(errors)} error(s); "
        f"budget {ANALYZER_BUDGET_SECONDS:.0f}s)"
    )
    assert errors == []
    assert elapsed < ANALYZER_BUDGET_SECONDS, (
        f"full analyzer took {elapsed:.2f}s "
        f"(budget {ANALYZER_BUDGET_SECONDS:.0f}s)"
    )


if __name__ == "__main__":
    test_analyzer_whole_repo_under_budget()
