"""Crash-recovery acceptance tests (the ISSUE's core scenario).

A journaled sweep is killed mid-journal-append via the ``journal.write``
fault site; the resumed sweep must skip completed cells, re-run torn and
in-flight ones, and produce figure JSON byte-identical to an
uninterrupted run.
"""

from __future__ import annotations

import pytest

from repro.errors import InjectedFaultError
from repro.experiments.figures import fig07_pressure_alloc_order
from repro.experiments.harness import ExperimentRunner
from repro.experiments.runconfig import RunConfig
from repro.faults import FaultPlan
from repro.runstate import RunJournal

WORKLOADS = ("bfs",)
DATASETS = ("test-small",)


def run_fig07(runner: ExperimentRunner):
    return fig07_pressure_alloc_order(
        runner, workloads=WORKLOADS, datasets=DATASETS
    )


def counting_runner(**run_config) -> tuple[ExperimentRunner, list]:
    """A runner that counts real cell simulations."""
    runner = ExperimentRunner(run_config=RunConfig(**run_config))
    simulations: list = []
    original = runner._simulate_cell

    def counting(*args, **kwargs_inner):
        simulations.append(1)
        return original(*args, **kwargs_inner)

    runner._simulate_cell = counting
    return runner, simulations


@pytest.fixture(scope="module")
def reference_json() -> str:
    """The uninterrupted run's figure JSON."""
    return run_fig07(ExperimentRunner()).to_json()


class TestCrashRecovery:
    def crash_sweep(self, journal_path: str, after: int) -> None:
        """Run fig07 until the journal's ``after``-th append crashes."""
        plan = FaultPlan.parse(f"journal.write:after={after}")
        runner = ExperimentRunner(run_config=RunConfig(
            journal=RunJournal(journal_path, injector=plan.make_injector())
        ))
        with pytest.raises(InjectedFaultError):
            run_fig07(runner)

    def test_crash_leaves_detectable_torn_record(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        self.crash_sweep(path, after=3)
        journal = RunJournal(path)
        assert journal.torn_records == 1
        counts = journal.counts()
        assert counts["done"] == 1 and counts["running"] == 1

    def test_resume_skips_completed_and_matches_byte_identical(
        self, tmp_path, reference_json
    ):
        path = str(tmp_path / "run.jsonl")
        self.crash_sweep(path, after=3)
        resumed, simulations = counting_runner(
            journal=RunJournal(path), resume=True
        )
        result = run_fig07(resumed)
        # One cell completed before the crash; the in-flight cell and
        # the torn outcome re-run along with the never-started ones.
        assert result.to_json() == reference_json
        uninterrupted, baseline = counting_runner()
        run_fig07(uninterrupted)
        assert len(simulations) == len(baseline) - 1
        # After the resumed sweep, the journal holds every cell as done.
        final = RunJournal(path)
        assert final.counts()["done"] == len(baseline)

    def test_resume_after_later_crash_skips_more(
        self, tmp_path, reference_json
    ):
        path = str(tmp_path / "run.jsonl")
        self.crash_sweep(path, after=6)  # three cells complete
        resumed, simulations = counting_runner(
            journal=RunJournal(path), resume=True
        )
        assert run_fig07(resumed).to_json() == reference_json
        uninterrupted, baseline = counting_runner()
        run_fig07(uninterrupted)
        assert len(simulations) == len(baseline) - 3

    def test_double_crash_then_resume(self, tmp_path, reference_json):
        """Crash, resume into a second crash, then finish: each resume
        builds on every prior completed cell."""
        path = str(tmp_path / "run.jsonl")
        self.crash_sweep(path, after=3)
        plan = FaultPlan.parse("journal.write:after=4")
        second = ExperimentRunner(run_config=RunConfig(
            journal=RunJournal(path, injector=plan.make_injector()),
            resume=True,
        ))
        with pytest.raises(InjectedFaultError):
            run_fig07(second)
        final, simulations = counting_runner(
            journal=RunJournal(path), resume=True
        )
        assert run_fig07(final).to_json() == reference_json
        uninterrupted, baseline = counting_runner()
        run_fig07(uninterrupted)
        assert 0 < len(simulations) < len(baseline)

    def test_resume_without_resume_flag_rewrites_everything(self, tmp_path):
        """A journal without resume=True records but never skips."""
        path = str(tmp_path / "run.jsonl")
        first, first_sims = counting_runner(journal=RunJournal(path))
        run_fig07(first)
        second, second_sims = counting_runner(journal=RunJournal(path))
        run_fig07(second)
        assert len(second_sims) == len(first_sims)

    def test_resumed_figure_render_matches_too(
        self, tmp_path, reference_json
    ):
        path = str(tmp_path / "run.jsonl")
        self.crash_sweep(path, after=3)
        resumed = ExperimentRunner(
            run_config=RunConfig(journal=RunJournal(path), resume=True)
        )
        rendered = run_fig07(resumed).render()
        assert rendered == run_fig07(ExperimentRunner()).render()
