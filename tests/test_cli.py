"""Tests for the command-line interface (driven in-process)."""

import os
import subprocess
import sys

import pytest

import repro
from repro.cli import main


class TestStartup:
    def test_cli_import_stays_lean(self):
        """``import repro.cli`` must not pull in the process-executor
        machinery: a one-shot ``repro run`` pays for every module it
        imports, and ``--workers``/``--distribute`` import it lazily."""
        src_root = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src_root)
        probe = (
            "import sys, repro.cli; "
            "print(' '.join(m for m in ('asyncio', 'multiprocessing', "
            "'repro.dist') if m in sys.modules))"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe], env=env, check=True,
            capture_output=True, text=True, timeout=60,
        ).stdout
        assert out.strip() == ""


class TestInformational:
    def test_profiles(self, capsys):
        assert main(["profiles"]) == 0
        out = capsys.readouterr().out
        assert "scaled" in out
        assert "paper-x86" in out
        assert "STLB" in out

    def test_policies(self, capsys):
        assert main(["policies"]) == 0
        out = capsys.readouterr().out
        assert "base4k" in out
        assert "thp" in out
        assert "selective:" in out

    def test_policies_is_one_table(self, capsys):
        """The paper's fixed names and the zoo are one namespace, listed
        once each in one table."""
        assert main(["policies"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "" not in lines
        names = [line.split()[0] for line in lines[1:]]
        assert {"thp-opt", "hawkeye", "base4k", "never"} <= set(names)
        assert len(names) == len(set(names))

    def test_datasets(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "kron-s" in out
        assert "Kr25" in out
        assert "test-small" not in out


class TestRun:
    def test_run_tiny_cell(self, capsys):
        code = main(
            [
                "run",
                "--workload",
                "bfs",
                "--dataset",
                "test-small",
                "--policy",
                "thp",
                "--scenario",
                "fresh",
                "--profile",
                "tiny",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "kernel_cycles" in out
        assert "dtlb_miss_rate" in out

    def test_run_selective_policy_spec(self, capsys):
        code = main(
            [
                "run",
                "--dataset",
                "test-small",
                "--policy",
                "selective:0.5:original",
                "--scenario",
                "constrained:1.0",
                "--profile",
                "tiny",
            ]
        )
        assert code == 0

    def test_unknown_policy_errors(self, capsys):
        code = main(
            ["run", "--dataset", "test-small", "--policy", "bogus",
             "--profile", "tiny"]
        )
        assert code == 2
        assert "unknown policy" in capsys.readouterr().err

    def test_bad_zoo_parameter_value_exits_2(self, capsys):
        code = main(
            ["run", "--dataset", "test-small", "--policy",
             "hawkeye-bits:stride=0", "--profile", "tiny"]
        )
        assert code == 2
        assert "error: bad parameters" in capsys.readouterr().err

    def test_unknown_scenario_errors(self, capsys):
        code = main(
            ["run", "--dataset", "test-small", "--scenario", "bogus",
             "--profile", "tiny"]
        )
        assert code == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_fragmented_scenario_spec(self, capsys):
        code = main(
            [
                "run",
                "--dataset",
                "test-small",
                "--scenario",
                "fragmented:0.25:2.0",
                "--profile",
                "tiny",
            ]
        )
        assert code == 0


class TestFigure:
    def test_figure_on_test_dataset(self, capsys):
        code = main(
            [
                "figure",
                "fig03",
                "--workloads",
                "bfs",
                "--datasets",
                "test-small",
                "--profile",
                "tiny",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fig03" in out
        assert "dtlb_miss_4k" in out

    def test_unknown_figure(self, capsys):
        code = main(["figure", "fig99", "--profile", "tiny"])
        assert code == 2
        assert "unknown figure" in capsys.readouterr().err

    def test_figure_json_output(self, capsys):
        import json

        code = main(
            [
                "figure",
                "fig03",
                "--workloads",
                "bfs",
                "--datasets",
                "test-small",
                "--profile",
                "tiny",
                "--json",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["figure_id"] == "fig03"
        assert doc["rows"]

    @pytest.mark.parametrize("flag", ["--lease-seconds", "--lease-attempts"])
    def test_lease_tuning_flags_are_gone(self, flag, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["figure", "fig07", flag, "1"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_figure_all_runs_every_function(self, capsys):
        code = main(
            [
                "figure",
                "all",
                "--workloads",
                "bfs",
                "--datasets",
                "test-small",
                "--profile",
                "tiny",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        for fid in ("fig01", "fig07b", "fig11", "headline", "abl-reorder"):
            assert f"[{fid}]" in out, fid


class TestAdvise:
    def test_advise(self, capsys):
        code = main(["advise", "--dataset", "test-small",
                     "--profile", "tiny"])
        assert code == 0
        out = capsys.readouterr().out
        assert "advise fraction" in out
        assert "budget fraction" in out


class TestChaosWorkdir:
    """``repro chaos`` without ``--workdir`` removes the temporary
    directory it made once every scenario passes, and keeps it (naming
    it on stderr) when one fails.  The scenarios are stubbed."""

    @pytest.fixture
    def tmpdir_env(self, tmp_path, monkeypatch):
        import tempfile

        monkeypatch.setenv("TMPDIR", str(tmp_path))
        monkeypatch.setattr(tempfile, "tempdir", None)
        return tmp_path

    @staticmethod
    def _stub(monkeypatch, fail: bool) -> list[str]:
        from repro.chaos import harness
        from repro.errors import ChaosError

        seen: list[str] = []

        def run_scenarios(names, workdir, log):
            seen.append(workdir)
            with open(os.path.join(workdir, "journal.jsonl"), "w") as out:
                out.write("{}\n")
            if fail:
                raise ChaosError("invariant broken")
            return [{"scenario": name, "ok": True} for name in names]

        monkeypatch.setattr(harness, "run_scenarios", run_scenarios)
        return seen

    def test_passing_run_removes_its_workdir(
        self, tmpdir_env, monkeypatch, capsys
    ):
        seen = self._stub(monkeypatch, fail=False)
        assert main(["chaos", "dist-local-degrade"]) == 0
        assert len(seen) == 1
        assert os.path.dirname(seen[0]) == str(tmpdir_env)
        assert not os.path.exists(seen[0])
        assert list(tmpdir_env.iterdir()) == []
        assert "1/1 scenario(s) passed" in capsys.readouterr().out

    def test_failing_run_keeps_its_workdir(
        self, tmpdir_env, monkeypatch, capsys
    ):
        seen = self._stub(monkeypatch, fail=True)
        assert main(["chaos", "dist-local-degrade"]) == 2
        assert os.path.isfile(os.path.join(seen[0], "journal.jsonl"))
        err = capsys.readouterr().err
        assert f"chaos workdir kept: {seen[0]}" in err
        assert "invariant broken" in err

    def test_given_workdir_is_left_alone(self, tmp_path, monkeypatch):
        seen = self._stub(monkeypatch, fail=False)
        workdir = tmp_path / "mine"
        workdir.mkdir()
        assert main(["chaos", "dist-local-degrade", "--workdir", str(workdir)]) == 0
        assert seen == [str(workdir)]
        assert (workdir / "journal.jsonl").is_file()
