"""Cross-cell replay (repro.machine.replay) must be invisible.

A runner that has already simulated other cells replays stream outcomes
from its memo; a fresh runner per cell simulates everything.  Both must
produce the same result bytes, journal bytes and trace event bytes over
every kernel, a flushing and a profiling policy, with and without swap,
under armed swap fault plans and on both TLB engines.
"""

from __future__ import annotations

import itertools
import json

import pytest

from repro.config import tiny
from repro.experiments.harness import ExperimentRunner
from repro.experiments.parse import parse_policy, parse_scenario
from repro.experiments.runconfig import RunConfig
from repro.faults.spec import FaultPlan
from repro.machine.replay import ReplayCursor, ReplayMemo, StreamOutcome
from repro.obs import write_trace_jsonl
from repro.runstate.journal import RunJournal
from repro.runstate.serialize import encode_result
from repro.tlb.hierarchy import TranslationStats

CONFIG = tiny()
DATASET = "test-small"
KERNELS = ("bfs", "sssp", "pagerank", "cc")
POLICIES = ("never", "thp", "madvise", "hawkeye", "autotuner")
SCENARIOS = ("fresh", "oversubscribed")
FAULT_PLANS = {
    # Transient swap-in errors that the retries survive.
    "transient": ("swap-in:every=3:max=2", 2),
    # Wear-out: later swap-ins always fail, so long cells fail.
    "wear-out": ("swap-in:after=4", 1),
}


def _cells():
    return [
        (
            kernel,
            DATASET,
            parse_policy(policy, dataset=DATASET, config=CONFIG),
            parse_scenario(scenario),
        )
        for kernel, policy, scenario in itertools.product(
            KERNELS, POLICIES, SCENARIOS
        )
    ]


def _runner(engine, faults, journal):
    spec, retries = FAULT_PLANS[faults]
    return ExperimentRunner(
        config=CONFIG,
        run_config=RunConfig(
            tlb_engine=engine,
            faults=FaultPlan.parse(spec),
            retries=retries,
            trace=True,
            journal=journal,
        ),
        datasets=(DATASET,),
    )


def _sweep(tmp_path, engine, faults, warm):
    """Run every cell; ``warm`` shares one runner (and its memo)."""
    tag = f"{engine}-{faults}-{'warm' if warm else 'fresh'}"
    journal = RunJournal(str(tmp_path / f"{tag}.jsonl"))
    runner = _runner(engine, faults, journal)
    results, trace_log = [], []
    for cell in _cells():
        if not warm:
            runner = _runner(engine, faults, journal)
        results.append(
            json.dumps(encode_result(runner.run_cell(*cell)), sort_keys=True)
        )
        if not warm:
            trace_log.extend(runner.trace_log)
    if warm:
        trace_log = runner.trace_log
    trace_path = tmp_path / f"{tag}-trace.jsonl"
    write_trace_jsonl(str(trace_path), trace_log)
    return (
        runner,
        results,
        (tmp_path / f"{tag}.jsonl").read_bytes(),
        trace_path.read_bytes(),
    )


@pytest.fixture
def flush_count(monkeypatch):
    """Count replay-chain resets (a manager's TLB shootdown)."""
    calls = []
    original = ReplayCursor.flush

    def spy(self):
        calls.append(1)
        original(self)

    monkeypatch.setattr(ReplayCursor, "flush", spy)
    return calls


@pytest.mark.parametrize("faults", sorted(FAULT_PLANS))
@pytest.mark.parametrize("engine", ["exact", "batch"])
def test_warm_runner_matches_fresh_runners(
    tmp_path, engine, faults, flush_count
):
    warm, warm_results, warm_journal, warm_trace = _sweep(
        tmp_path, engine, faults, warm=True
    )
    _, fresh_results, fresh_journal, fresh_trace = _sweep(
        tmp_path, engine, faults, warm=False
    )
    assert warm._replay.hits > 0, "the warm sweep never replayed"
    assert flush_count, "no policy flushed the TLB mid-run"
    assert b"swap.in" in warm_trace, "no swap path exercised"
    assert warm_results == fresh_results
    assert warm_journal == fresh_journal
    assert warm_trace == fresh_trace


def _run(runner, kernel, policy, scenario):
    return runner.run_cell(
        kernel,
        DATASET,
        parse_policy(policy, dataset=DATASET, config=CONFIG),
        parse_scenario(scenario),
    )


def test_repeated_layout_hits():
    """4KB pages ignore fragmentation: the same streams replay."""
    runner = ExperimentRunner(config=CONFIG, datasets=(DATASET,))
    _run(runner, "bfs", "never", "fresh")
    misses = runner._replay.misses
    assert runner._replay.hits == 0
    _run(runner, "bfs", "never", "frag-50")
    assert runner._replay.hits == misses
    assert runner._replay.misses == misses


def test_no_hit_across_differing_page_sizes():
    # cc's footprint is the one on test-small that spans a tiny huge page.
    runner = ExperimentRunner(config=CONFIG, datasets=(DATASET,))
    assert _run(runner, "cc", "never", "fresh").huge_bytes == 0
    assert _run(runner, "cc", "thp", "fresh").huge_bytes > 0
    assert runner._replay.hits == 0


def test_no_hit_across_differing_residency():
    runner = ExperimentRunner(config=CONFIG, datasets=(DATASET,))
    _run(runner, "bfs", "never", "fresh")
    assert _run(runner, "bfs", "never", "oversubscribed").swap_ins > 0
    assert runner._replay.hits == 0


@pytest.mark.parametrize("engine", ["exact", "batch"])
def test_miss_after_hit_starts_from_the_restored_state(engine):
    """A budget-cut cell stores only its first stream; rerunning it
    unbudgeted replays that stream and must simulate the rest from
    the replayed TLB state."""
    run_config = RunConfig(tlb_engine=engine)
    warm = ExperimentRunner(
        config=CONFIG, run_config=run_config.replace(cell_budget=1)
    )
    assert not _run(warm, "bfs", "never", "fresh").ok
    assert len(warm._replay) == 1
    warm.cell_budget = None
    replayed = _run(warm, "bfs", "never", "fresh")
    assert warm._replay.hits == 1 and len(warm._replay) > 1
    fresh = ExperimentRunner(config=CONFIG, run_config=run_config)
    assert json.dumps(encode_result(replayed)) == json.dumps(
        encode_result(_run(fresh, "bfs", "never", "fresh"))
    )


def test_clear_cache_empties_the_memo():
    runner = ExperimentRunner(config=CONFIG, datasets=(DATASET,))
    _run(runner, "bfs", "never", "fresh")
    assert len(runner._replay) > 0
    runner.clear_cache()
    assert len(runner._replay) == 0
    assert runner._replay.hits == runner._replay.misses == 0


class _Process:
    """Just what a cursor reads from a process."""

    def __init__(self, layout):
        self.config = CONFIG
        self.layout = layout

    def translation_layout(self, with_residency):
        return (with_residency, self.layout)


class _Hierarchy:
    engine = "batch"
    config = CONFIG.tlb


def _outcome(swap_ins=0):
    return StreamOutcome(TranslationStats(), swap_ins, state=())


def _record(memo, layout, streams=1, check_swap=False):
    cursor = memo.cursor("key", _Hierarchy(), _Process(layout), check_swap)
    for _ in range(streams):
        assert cursor.lookup() is None
        cursor.store(_outcome())


def test_key_covers_layout_residency_and_chain():
    memo = ReplayMemo()
    _record(memo, "base", streams=2)

    def lookups(layout, check_swap=False, flush_after_first=False):
        cursor = memo.cursor(
            "key", _Hierarchy(), _Process(layout), check_swap
        )
        found = [cursor.lookup() is not None]
        if flush_after_first:
            cursor.flush()
        found.append(cursor.lookup() is not None)
        return found

    assert lookups("base") == [True, True]
    assert lookups("huge") == [False, False]
    assert lookups("base", check_swap=True) == [False, False]
    # After a flush the second stream's entry state differs.
    assert lookups("base", flush_after_first=True) == [True, False]


def test_memo_is_bounded(monkeypatch):
    monkeypatch.setattr(ReplayMemo, "MAX_ENTRIES", 3)
    memo = ReplayMemo()
    _record(memo, "a", streams=5)
    assert 0 < len(memo) <= 3
