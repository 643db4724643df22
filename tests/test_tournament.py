"""Tests for the policy-zoo tournament (repro.policy.tournament and the
``repro tournament`` CLI).

The leaderboard is a derived artifact of the journaled cell sweep, so
its determinism contract is the harness's: two identical runs must be
byte-identical, and a parallel run must match a serial one exactly.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.cli import main
from repro.config import tiny
from repro.errors import ReproError
from repro.experiments.harness import ExperimentRunner
from repro.experiments.runconfig import RunConfig
from repro.policy.tournament import (
    BASELINE_SPEC,
    DEFAULT_POLICIES,
    DEFAULT_SCENARIOS,
    run_tournament,
)

POLICIES_4 = ("greedy-always", "madvise", "khugepaged", "ingens")
SCENARIOS_2 = ("fresh", "fragmented:0.5")


def _run(tmp_path, workers=1, tag="a", policies=POLICIES_4):
    journal = str(tmp_path / f"tournament-{tag}.jsonl")
    runner = ExperimentRunner(
        config=tiny(),
        run_config=RunConfig(workers=workers, journal=journal),
        datasets=("test-small",),
    )
    try:
        result = run_tournament(
            runner,
            policies=policies,
            scenarios=SCENARIOS_2,
            datasets=("test-small",),
        )
    finally:
        runner.run_config.journal.close()
    assert not runner.failures, [f.describe() for f in runner.failures]
    return result, pathlib.Path(journal).read_bytes()


class TestLeaderboard:
    def test_shape_and_ranking(self, tmp_path):
        result, _ = _run(tmp_path)
        assert len(result.rows) == len(POLICIES_4)
        assert [row["rank"] for row in result.rows] == [1, 2, 3, 4]
        overall = [row["overall"] for row in result.rows]
        assert overall == sorted(overall, reverse=True)
        for row in result.rows:
            assert set(("policy", "overall")) <= set(row)
            for scenario_col in ("fresh", "fragmented(50%,+3GB)"):
                assert scenario_col in row

    def test_two_runs_byte_identical(self, tmp_path):
        first, journal_a = _run(tmp_path, tag="a")
        second, journal_b = _run(tmp_path, tag="b")
        assert first.render() == second.render()
        assert first.to_json() == second.to_json()
        assert journal_a == journal_b

    def test_serial_vs_parallel_byte_identical(self, tmp_path):
        serial, journal_serial = _run(tmp_path, workers=1, tag="s")
        pooled, journal_pooled = _run(tmp_path, workers=4, tag="p")
        assert serial.render() == pooled.render()
        assert serial.to_json() == pooled.to_json()
        assert journal_serial == journal_pooled

    def test_parameterized_specs_are_distinct_journal_cells(
        self, tmp_path
    ):
        _, journal = _run(
            tmp_path,
            tag="params",
            policies=("ingens:threshold=0.8", "ingens:threshold=0.6"),
        )
        specs = {
            json.loads(line)["spec"] for line in journal.splitlines()
        }
        # (baseline + two ingens parameterizations) x two scenarios ->
        # six distinct cell fingerprints; identical param values would
        # collapse the count.
        assert len(specs) == 6

    def test_rejects_empty_and_duplicate_policies(self, tmp_path):
        runner = ExperimentRunner(config=tiny(), datasets=("test-small",))
        with pytest.raises(ReproError):
            run_tournament(runner, policies=())
        with pytest.raises(ReproError):
            run_tournament(
                runner, policies=("ingens", "ingens"),
                scenarios=("fresh",),
            )

    def test_defaults_are_sane(self):
        assert len(DEFAULT_POLICIES) >= 4
        assert len(DEFAULT_SCENARIOS) >= 2
        assert BASELINE_SPEC == "never"
        assert BASELINE_SPEC not in DEFAULT_POLICIES


class TestCli:
    ARGS = [
        "--profile", "tiny",
        "--datasets", "test-small",
        "--policies", ",".join(POLICIES_4),
        "--scenarios", ",".join(SCENARIOS_2),
    ]

    def test_failed_cells_show_on_the_board(self, capsys):
        """A column or overall with a failed cell behind it reads
        FAILED(site), the board counts its failures, and failed
        overalls rank after numeric ones, in spec order."""
        assert main([
            "tournament", "--datasets", "test-small",
            "--faults", "compaction:1.0", "--json",
        ]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        failed = [
            row["policy"] for row in rows
            if str(row["overall"]).startswith("FAILED(")
        ]
        numeric = [
            row["overall"] for row in rows
            if not str(row["overall"]).startswith("FAILED(")
        ]
        assert failed
        assert [row["policy"] for row in rows][len(numeric):] == sorted(
            failed
        )
        assert numeric == sorted(numeric, reverse=True)
        assert 0.0 not in [
            value for row in rows for value in row.values()
        ]
        assert main([
            "tournament", "--datasets", "test-small",
            "--faults", "compaction:1.0",
        ]) == 0
        out = capsys.readouterr().out
        assert "FAILED(compaction)" in out
        assert "cell(s) FAILED" in out

    def test_tournament_subcommand(self, capsys):
        assert main(["tournament", *self.ARGS]) == 0
        out = capsys.readouterr().out
        assert "rank" in out
        assert "greedy-always" in out
        assert "overall" in out

    def test_paper_names_and_selective_enter_the_tournament(self, capsys):
        code = main([
            "tournament", "--profile", "tiny", "--datasets", "test-small",
            "--scenarios", "fresh",
            "--policies", "thp-opt,dbg+thp,selective:0.3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "thp-opt" in out
        assert "selective:0.3" in out

    def test_tournament_json(self, capsys):
        assert main(["tournament", *self.ARGS, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["figure_id"] == "tournament"
        assert len(payload["rows"]) == 4

    def test_tournament_save(self, tmp_path, capsys):
        out_dir = str(tmp_path / "results")
        assert main(["tournament", *self.ARGS, "--out", out_dir]) == 0
        saved = sorted(p.name for p in pathlib.Path(out_dir).iterdir())
        assert saved == ["tournament.json", "tournament.txt"]

    def test_figure_tournament_with_policy_flags(self, capsys):
        code = main(
            [
                "figure", "tournament",
                "--profile", "tiny",
                "--datasets", "test-small",
                "--policy", "greedy-always,madvise",
                "--policy", "khugepaged",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "khugepaged" in out

    def test_policy_flag_rejected_on_other_figures(self, capsys):
        code = main(
            [
                "figure", "fig01",
                "--profile", "tiny",
                "--datasets", "test-small",
                "--policy", "madvise",
            ]
        )
        assert code == 2
        assert "tournament" in capsys.readouterr().err

    def test_unknown_zoo_policy_errors(self, capsys):
        code = main(["tournament", *self.ARGS[:-2],
                     "--policies", "definitely-missing"])
        assert code == 2
        assert "definitely-missing" in capsys.readouterr().err
