"""Run-journal overhead guard.

Journaling must be cheap enough to leave on for every sweep: a
journaled cell adds one ``running`` append and one outcome append (each
flush + fsync) around an otherwise identical simulation, and the
journal-off path is a pair of ``is not None`` tests.  This benchmark
bounds the *journaled* path empirically on a fig01-style cell (BFS on
kron-s, THP, fresh boot, SCALED profile):

- *off*: ``ExperimentRunner`` with no journal — the seed-equivalent
  hot path;
- *journaled*: the same runner writing a fresh journal per round (a
  reused journal would short-circuit nothing — resume is off — but a
  fresh file keeps append costs identical across rounds).

The cell cache is cleared before every measured run so each run
simulates for real; the prepared-graph cache is deliberately kept warm
so graph loading does not drown the comparison.  Timings are
interleaved min-of-N so machine noise cancels rather than accumulates.
"""

from __future__ import annotations

import gc
import pathlib
import tempfile
import time
from typing import Optional

from repro.experiments.harness import ExperimentRunner
from repro.experiments.policies import POLICIES
from repro.experiments.scenarios import SCENARIOS
from repro.runstate import RunJournal

ROUNDS = 5
OVERHEAD_BUDGET = 0.02


def _run_once(runner: ExperimentRunner, journal_path: Optional[str]) -> float:
    runner._cache.clear()
    # Replayed streams would shrink the cell under the journal's fixed
    # cost; every round simulates the whole cell, as the seed did.
    runner._replay.clear()
    runner.failures.clear()
    runner.journal = (
        RunJournal(journal_path) if journal_path is not None else None
    )
    gc.collect()
    start = time.perf_counter()
    runner.run_cell("bfs", "kron-s", POLICIES["thp"], SCENARIOS["fresh"])
    return time.perf_counter() - start


def test_journal_overhead():
    runner = ExperimentRunner()
    # Warm-up: loads and caches the prepared graph, warms allocators.
    _run_once(runner, None)
    with tempfile.TemporaryDirectory() as tmpdir:
        journals = (
            str(pathlib.Path(tmpdir) / f"round{i}.jsonl")
            for i in range(2 * ROUNDS)
        )
        off = []
        journaled = []
        for round_index in range(ROUNDS):
            # Alternate which variant runs first so allocator/frequency
            # drift within a round does not bias one side systematically.
            pair = [
                (off, None),
                (journaled, next(journals)),
            ]
            if round_index % 2:
                pair.reverse()
            for bucket, journal_path in pair:
                bucket.append(_run_once(runner, journal_path))
    best_off = min(off)
    best_journaled = min(journaled)
    overhead = best_journaled / best_off - 1.0
    print(
        f"\nrun-journal overhead (fig01-style cell, min of {ROUNDS}):"
        f"\n  journal off (seed hot path) : {best_off * 1e3:8.1f} ms"
        f"\n  journaled (2 fsync'd appends): {best_journaled * 1e3:8.1f} ms"
        f"\n  overhead                    : {overhead:+.2%}"
        f"  (budget {OVERHEAD_BUDGET:.0%})"
    )
    assert overhead < OVERHEAD_BUDGET, (
        f"journaling costs {overhead:.2%} per cell "
        f"(budget {OVERHEAD_BUDGET:.0%})"
    )


if __name__ == "__main__":
    test_journal_overhead()
