"""ConcSan runtime budget guard.

A claim the analyzer makes about its own cost, bounded empirically
alongside the existing <2% MemSan dispatch guard
(``bench_sanitizer_overhead.py``): **ConcSan is cheap enough to gate
CI.**  The full analyzer (REP001–REP011, including the interprocedural
project model built twice — once for REP009, once for REP010) over the
whole ``repro`` package must finish well inside a CI-friendly budget
(<10 s).
"""

from __future__ import annotations

import time

from repro.analysis.lint import default_target, lint_paths

CONCSAN_BUDGET_SECONDS = 10.0


def test_concsan_whole_repo_under_budget():
    # Warm-up parse so interpreter/bytecode-cache effects don't count.
    lint_paths([default_target()], rules=["REP001"])
    start = time.perf_counter()
    findings, errors = lint_paths([default_target()])
    elapsed = time.perf_counter() - start
    print(
        f"\nConcSan whole-repo run: {elapsed:.2f}s "
        f"({len(findings)} finding(s), {len(errors)} error(s); "
        f"budget {CONCSAN_BUDGET_SECONDS:.0f}s)"
    )
    assert errors == []
    assert elapsed < CONCSAN_BUDGET_SECONDS, (
        f"full analyzer took {elapsed:.2f}s "
        f"(budget {CONCSAN_BUDGET_SECONDS:.0f}s)"
    )


if __name__ == "__main__":
    test_concsan_whole_repo_under_budget()
