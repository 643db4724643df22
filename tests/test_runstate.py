"""Tests for repro.runstate: atomic writes, the run journal, spec
fingerprints, the cell watchdog, and the `repro runs` CLI."""

from __future__ import annotations

import json
import os

import pytest

from repro.cli import main as cli_main
from repro.config import tiny
from repro.errors import InjectedFaultError, JournalError, WatchdogExpiredError
from repro.experiments.harness import CellFailure, ExperimentRunner
from repro.experiments.policies import POLICIES
from repro.experiments.runconfig import RunConfig
from repro.experiments.scenarios import SCENARIOS, fresh
from repro.faults import FaultPlan
from repro.graph.datasets import load_dataset
from repro.machine.machine import Machine
from repro.mem.thp import ThpPolicy
from repro.runstate import (
    CellWatchdog,
    RunJournal,
    append_durable_line,
    atomic_write_text,
    decode_result,
    encode_result,
    integrity_hash,
    spec_fingerprint,
)
from repro.runstate.journal import JournalRecord, _parse_line, _render_line
from repro.workloads.registry import create_workload

BFS = "bfs"
SMALL = "test-small"
THP = POLICIES["thp"]
FRESH = SCENARIOS["fresh"]


def small_runner(**run_config) -> ExperimentRunner:
    return ExperimentRunner(run_config=RunConfig(**run_config))


# ----------------------------------------------------------------------
# Atomic write helpers
# ----------------------------------------------------------------------


class TestAtomicHelpers:
    def test_atomic_write_replaces_whole_file(self, tmp_path):
        path = str(tmp_path / "out.txt")
        atomic_write_text(path, "first\n")
        atomic_write_text(path, "second\n")
        with open(path, "r", encoding="utf-8") as handle:
            assert handle.read() == "second\n"
        assert not [
            name for name in os.listdir(tmp_path) if name != "out.txt"
        ], "temp files must not survive"

    def test_atomic_write_crash_leaves_previous_version(self, tmp_path):
        path = str(tmp_path / "out.txt")
        atomic_write_text(path, "stable\n")
        plan = FaultPlan.parse("journal.write:1.0")
        with pytest.raises(InjectedFaultError):
            atomic_write_text(path, "torn\n", injector=plan.make_injector())
        with open(path, "r", encoding="utf-8") as handle:
            assert handle.read() == "stable\n"

    def test_append_durable_line_appends(self, tmp_path):
        path = str(tmp_path / "log.jsonl")
        append_durable_line(path, "one")
        append_durable_line(path, "two")
        with open(path, "r", encoding="utf-8") as handle:
            assert handle.read() == "one\ntwo\n"

    def test_append_rejects_embedded_newline(self, tmp_path):
        with pytest.raises(ValueError):
            append_durable_line(str(tmp_path / "log"), "a\nb")

    def test_append_crash_tears_the_line(self, tmp_path):
        path = str(tmp_path / "log.jsonl")
        append_durable_line(path, "intact-record")
        plan = FaultPlan.parse("journal.write:1.0")
        with pytest.raises(InjectedFaultError):
            append_durable_line(path, "torn-record", injector=plan.make_injector())
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        assert text.startswith("intact-record\n")
        # The torn half-line is present but incomplete and unterminated.
        tail = text[len("intact-record\n"):]
        assert tail and "torn-record" not in tail and not tail.endswith("\n")


# ----------------------------------------------------------------------
# Journal records and integrity
# ----------------------------------------------------------------------


class TestJournalRecords:
    def test_render_parse_round_trip(self):
        record = JournalRecord(
            seq=3, spec="abc", status="done",
            cell={"workload": "bfs"}, attempts=2, kernel_cycles=123,
            payload={"kind": "metrics"},
        )
        parsed = _parse_line(_render_line(record))
        assert parsed == record

    def test_bad_json_is_torn(self):
        assert _parse_line('{"seq": 1, "spec"') is None

    def test_integrity_mismatch_is_torn(self):
        record = JournalRecord(seq=1, spec="abc", status="done", cell={})
        line = _render_line(record).replace('"spec":"abc"', '"spec":"abd"')
        assert _parse_line(line) is None

    def test_unknown_status_is_torn(self):
        payload = JournalRecord(seq=1, spec="a", status="paused", cell={}).to_dict()
        payload["integrity"] = integrity_hash(payload)
        assert _parse_line(json.dumps(payload)) is None


class TestRunJournal:
    def test_last_valid_record_wins(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        journal = RunJournal(path)
        journal.begin("spec1", {"workload": "bfs"})
        assert journal.lookup("spec1").status == "running"
        failure = CellFailure(
            workload="bfs", dataset=SMALL, policy="thp",
            scenario="fresh", error="OutOfMemoryError", message="oom",
        )
        journal.record_result("spec1", {"workload": "bfs"}, failure)
        reloaded = RunJournal(path)
        assert reloaded.lookup("spec1").status == "failed"
        assert reloaded.result("spec1") is None  # failed => re-run
        assert reloaded.counts() == {"running": 0, "done": 0, "failed": 1}

    def test_torn_line_skipped_and_counted(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        journal = RunJournal(path)
        journal.begin("spec1", {})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"seq": 2, "spec": "spec2", "stat')  # torn append
        reloaded = RunJournal(path)
        assert reloaded.torn_records == 1
        assert reloaded.lookup("spec2") is None
        # Appending after a torn tail must not concatenate onto it.
        reloaded.begin("spec3", {})
        final = RunJournal(path)
        assert final.lookup("spec3").status == "running"
        assert final.torn_records == 1

    def test_journal_path_is_directory_raises(self, tmp_path):
        with pytest.raises(JournalError):
            RunJournal(str(tmp_path))

    def test_gc_keeps_only_latest_done(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        journal = RunJournal(path)
        runner = small_runner()
        metrics = runner.run_cell(BFS, SMALL, THP, FRESH)
        journal.begin("s1", {})
        journal.record_result("s1", {}, metrics)
        journal.begin("s2", {})  # in-flight: dropped by gc
        kept, dropped = journal.gc()
        assert (kept, dropped) == (1, 2)
        reloaded = RunJournal(path)
        assert len(reloaded) == 1
        assert reloaded.lookup("s1").status == "done"


# ----------------------------------------------------------------------
# Result payload round-trip
# ----------------------------------------------------------------------


class TestResultRoundTrip:
    def test_metrics_round_trip_full_fidelity(self):
        runner = small_runner()
        metrics = runner.run_cell(BFS, SMALL, THP, FRESH)
        clone = decode_result(json.loads(json.dumps(encode_result(metrics))))
        assert clone.summary() == metrics.summary()
        assert clone.kernel_cycles == metrics.kernel_cycles
        assert clone.array_names == metrics.array_names
        assert clone.context == metrics.context
        assert clone.huge_fraction_per_array == metrics.huge_fraction_per_array

    def test_failure_round_trip(self):
        runner = small_runner(
            faults=FaultPlan.parse("staging:1.0"), retries=0
        )
        failure = runner.run_cell(BFS, SMALL, THP, FRESH)
        assert isinstance(failure, CellFailure)
        clone = decode_result(json.loads(json.dumps(encode_result(failure))))
        assert clone == failure
        assert clone.label == failure.label

    def test_unknown_kind_raises(self):
        with pytest.raises(JournalError):
            decode_result({"kind": "mystery"})


# ----------------------------------------------------------------------
# Spec fingerprints
# ----------------------------------------------------------------------


class TestSpecFingerprint:
    def fingerprint(self, **overrides) -> str:
        kwargs = dict(
            workload=BFS, dataset=SMALL, policy=THP, scenario=FRESH,
            pagerank_iterations=3, profile_name="scaled",
            fault_plan=None, max_retries=2, cell_budget=None,
            cell_cycles=None,
        )
        kwargs.update(overrides)
        return spec_fingerprint(**kwargs)

    def test_stable_across_calls(self):
        assert self.fingerprint() == self.fingerprint()

    def test_spec_changes_change_it(self):
        base = self.fingerprint()
        assert self.fingerprint(workload="pagerank") != base
        assert self.fingerprint(scenario=SCENARIOS["high-pressure"]) != base
        assert self.fingerprint(cell_cycles=10**9) != base
        assert self.fingerprint(max_retries=3) != base

    def test_simulation_faults_change_it(self):
        assert self.fingerprint(
            fault_plan=FaultPlan.parse("compaction:1.0")
        ) != self.fingerprint()

    def test_journal_faults_do_not_change_it(self):
        # A sweep crashed by an armed journal.write fault, resumed
        # without it, must still recognize its completed cells.
        assert self.fingerprint(
            fault_plan=FaultPlan.parse("journal.write:after=3")
        ) == self.fingerprint()

    def test_equivalent_scenario_object_matches(self):
        assert self.fingerprint(scenario=fresh()) == self.fingerprint()

    def test_clear_cache_does_not_invalidate_journal(self, tmp_path):
        """Spec hashes derive from the cell spec, not object identity:
        after clear_cache() a resumed cell still journal-hits."""
        path = str(tmp_path / "j.jsonl")
        runner = small_runner(journal=RunJournal(path), resume=True)
        simulations = []
        original = runner._simulate_cell

        def counting(*args, **kwargs):
            simulations.append(1)
            return original(*args, **kwargs)

        runner._simulate_cell = counting
        first = runner.run_cell(BFS, SMALL, THP, FRESH)
        assert len(simulations) == 1
        runner.clear_cache()
        second = runner.run_cell(BFS, SMALL, THP, FRESH)
        assert len(simulations) == 1, "journal hit must skip simulation"
        assert second.summary() == first.summary()


# ----------------------------------------------------------------------
# Watchdog
# ----------------------------------------------------------------------


class TestCellWatchdog:
    def test_validation(self):
        with pytest.raises(ValueError):
            CellWatchdog(max_cycles=0)
        with pytest.raises(ValueError):
            CellWatchdog(deadline_seconds=-1.0)
        assert not CellWatchdog().armed
        assert CellWatchdog(max_cycles=1).armed

    def test_cycle_budget_check(self):
        watchdog = CellWatchdog(max_cycles=100)
        watchdog.check(100)  # at the budget: fine
        with pytest.raises(WatchdogExpiredError, match="cycles"):
            watchdog.check(101)

    def test_deadline_check(self):
        watchdog = CellWatchdog(deadline_seconds=0.0)
        watchdog.start()
        with pytest.raises(WatchdogExpiredError, match="wall-clock"):
            watchdog.check(0)

    def test_machine_run_enforces_cycle_budget(self):
        data = load_dataset(SMALL)
        machine = Machine(tiny(), ThpPolicy.always())
        machine.finish_setup()
        with pytest.raises(WatchdogExpiredError):
            machine.run(
                create_workload(BFS, data.graph),
                dataset=data.name,
                watchdog=CellWatchdog(max_cycles=1_000),
            )

    def test_harness_absorbs_watchdog_as_failure(self):
        runner = small_runner(cell_cycles=1_000)
        result = runner.run_cell(BFS, SMALL, THP, FRESH)
        assert isinstance(result, CellFailure)
        assert result.label == "FAILED(watchdog)"
        assert result.attempts == 1, "watchdog expiry must not be retried"
        assert runner.failures == [result]
        # The sweep continues: an unbounded runner still works after.
        ok = small_runner().run_cell(BFS, SMALL, THP, FRESH)
        assert ok.ok

    def test_generous_budget_changes_nothing(self):
        bounded = small_runner(cell_cycles=10**15)
        unbounded = small_runner()
        assert (
            bounded.run_cell(BFS, SMALL, THP, FRESH).summary()
            == unbounded.run_cell(BFS, SMALL, THP, FRESH).summary()
        )

    def test_watchdog_failure_recorded_in_journal(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        runner = small_runner(
            journal=RunJournal(path), cell_cycles=1_000
        )
        runner.run_cell(BFS, SMALL, THP, FRESH)
        record = next(RunJournal(path).records())
        assert record.status == "failed"
        assert record.payload["error"] == "watchdog"


# ----------------------------------------------------------------------
# The `repro runs` CLI
# ----------------------------------------------------------------------


class TestRunsCli:
    @pytest.fixture()
    def journal_path(self, tmp_path) -> str:
        path = str(tmp_path / "run.jsonl")
        assert cli_main([
            "run", "--workload", BFS, "--dataset", SMALL,
            "--policy", "thp", "--journal", path,
        ]) == 0
        return path

    def test_list(self, journal_path, capsys):
        assert cli_main(["runs", "list", "--journal", journal_path]) == 0
        out = capsys.readouterr().out
        assert "done=1" in out and f"{BFS}/{SMALL}/thp/fresh" in out

    def test_show(self, journal_path, capsys):
        assert cli_main(["runs", "show", "--journal", journal_path]) == 0
        shown = json.loads(capsys.readouterr().out)
        assert shown["status"] == "done"
        assert shown["payload"]["kind"] == "metrics"

    def test_show_unknown_spec_errors(self, journal_path, capsys):
        assert cli_main([
            "runs", "show", "--journal", journal_path, "--spec", "nope",
        ]) == 2

    def test_gc(self, journal_path, capsys):
        assert cli_main(["runs", "gc", "--journal", journal_path]) == 0
        out = capsys.readouterr().out
        assert "kept 1" in out
        assert len(RunJournal(journal_path)) == 1

    def test_resume_requires_journal(self, capsys):
        assert cli_main([
            "run", "--workload", BFS, "--dataset", SMALL, "--resume",
        ]) == 2
