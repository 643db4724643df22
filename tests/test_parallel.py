"""``--workers N`` tests (docs/performance.md).

The contract under test: a figure batch run with ``workers=N`` (N local
lease workers, :mod:`repro.dist.localbatch`) produces byte-identical
saved output and identical journal record payloads to the serial path —
including under armed fault plans, mid-sweep resume, and hung or crashed
workers.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import signal
import tempfile
import time

import pytest

from repro.experiments import figures
from repro.experiments.figures import fig07_pressure_alloc_order
from repro.experiments.harness import (
    CellFailure,
    ExperimentRunner,
    resolve_workers,
)
from repro.experiments.policies import POLICIES
from repro.experiments.runconfig import RunConfig
from repro.experiments.scenarios import fresh
from repro.faults import FaultPlan
from repro.graph.reorder import ORDERINGS
from repro.runstate import RunJournal

WORKLOADS = ("bfs",)
DATASETS = ("test-small",)

fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="hang/crash injection monkeypatches across a fork boundary",
)


@pytest.fixture
def many_cpus(monkeypatch):
    """Pretend the host has plenty of CPUs.

    ``resolve_workers`` clamps to ``os.cpu_count()`` (the 1-CPU 0.82x
    regression guard), which on a small CI host would silently reroute
    every ``workers=N`` test through the serial path.  These tests are
    *about* the fan-out, so lift the ceiling."""
    monkeypatch.setattr(os, "cpu_count", lambda: 8)


@contextlib.contextmanager
def time_limit(seconds: int):
    """Fail (instead of hanging the suite) when the block overruns."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds}s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def run_fig07(runner: ExperimentRunner):
    return fig07_pressure_alloc_order(
        runner, workloads=WORKLOADS, datasets=DATASETS
    )


def fig07_cells() -> list[tuple]:
    """The fig07 batch, enumerated through the planning shim."""
    planner = figures._PlanningRunner(ExperimentRunner())
    fig07_pressure_alloc_order.__wrapped__(
        planner, workloads=WORKLOADS, datasets=DATASETS
    )
    return planner.cells


class TestResolveWorkers:
    def test_zero_means_one_per_cpu(self):
        assert resolve_workers(0) == (os.cpu_count() or 1)

    def test_negative_clamps_to_serial(self, many_cpus):
        assert resolve_workers(-3) == 1

    def test_positive_passes_through_below_cpu_count(self, many_cpus):
        assert resolve_workers(4) == 4

    def test_clamped_to_available_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert resolve_workers(8) == 2

    def test_one_cpu_falls_back_to_serial(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert resolve_workers(4) == 1


@pytest.mark.usefixtures("many_cpus")
class TestSerialParallelEquivalence:
    @pytest.fixture(scope="class")
    def reference(self, tmp_path_factory):
        """Serial saved-output bytes + figure JSON."""
        directory = tmp_path_factory.mktemp("serial")
        result = run_fig07(ExperimentRunner(run_config=RunConfig(workers=1)))
        txt_path, json_path = result.save(str(directory))
        return {
            "json": result.to_json(),
            "txt_bytes": open(txt_path, "rb").read(),
            "json_bytes": open(json_path, "rb").read(),
        }

    def test_saved_output_byte_identical(self, tmp_path, reference):
        result = run_fig07(ExperimentRunner(run_config=RunConfig(workers=4)))
        txt_path, json_path = result.save(str(tmp_path))
        assert open(txt_path, "rb").read() == reference["txt_bytes"]
        assert open(json_path, "rb").read() == reference["json_bytes"]

    def test_workers_zero_resolves_and_matches(self, reference):
        result = run_fig07(ExperimentRunner(run_config=RunConfig(workers=0)))
        assert result.to_json() == reference["json"]

    def test_journal_bytes_identical(self, tmp_path, reference):
        serial_path = str(tmp_path / "serial.jsonl")
        run_fig07(ExperimentRunner(run_config=RunConfig(
            workers=1, journal=RunJournal(serial_path)
        )))
        parallel_path = str(tmp_path / "parallel.jsonl")
        result = run_fig07(ExperimentRunner(run_config=RunConfig(
            workers=4, journal=RunJournal(parallel_path)
        )))
        serial_bytes = open(serial_path, "rb").read()
        assert serial_bytes == open(parallel_path, "rb").read()
        assert serial_bytes  # the batch actually journaled something
        assert result.to_json() == reference["json"]

    def test_fault_armed_journal_and_failures_identical(self, tmp_path):
        def journaled(workers: int, path: str):
            runner = ExperimentRunner(run_config=RunConfig(
                workers=workers,
                journal=RunJournal(path),
                faults=FaultPlan.parse("compaction:1.0", seed=0),
            ))
            result = run_fig07(runner)
            return result, runner.failures

        serial_path = str(tmp_path / "serial.jsonl")
        parallel_path = str(tmp_path / "parallel.jsonl")
        serial_result, serial_failures = journaled(1, serial_path)
        parallel_result, parallel_failures = journaled(4, parallel_path)
        assert open(serial_path, "rb").read() == open(
            parallel_path, "rb"
        ).read()
        assert serial_result.to_json() == parallel_result.to_json()
        assert serial_failures  # the armed plan actually failed cells
        assert serial_failures == parallel_failures

    def test_resume_mid_sweep_matches_serial_resume(self, tmp_path):
        def partial_journal(path: str) -> None:
            runner = ExperimentRunner(
                run_config=RunConfig(journal=RunJournal(path))
            )
            runner.run_cell(
                "bfs", "test-small", POLICIES["base4k"], fresh()
            )
            runner.run_cell("bfs", "test-small", POLICIES["thp"], fresh())

        def resume(workers: int, path: str):
            partial_journal(path)
            runner = ExperimentRunner(run_config=RunConfig(
                workers=workers, journal=RunJournal(path), resume=True
            ))
            return run_fig07(runner)

        serial_path = str(tmp_path / "serial.jsonl")
        parallel_path = str(tmp_path / "parallel.jsonl")
        serial_result = resume(1, serial_path)
        parallel_result = resume(4, parallel_path)
        assert open(serial_path, "rb").read() == open(
            parallel_path, "rb"
        ).read()
        assert serial_result.to_json() == parallel_result.to_json()

    def test_resumed_cells_never_dispatched(self, tmp_path, monkeypatch):
        """Journal-completed cells must not reach dispatch at all."""
        path = str(tmp_path / "run.jsonl")
        cells = fig07_cells()
        serial = ExperimentRunner(
            run_config=RunConfig(journal=RunJournal(path))
        )
        for cell in cells:
            serial.run_cell(*cell)

        dispatched: list = []
        import repro.dist.localbatch as localbatch

        real_execute = localbatch.run_local_batch

        def spying(runner, batch, workers):
            dispatched.extend(batch)
            return real_execute(runner, batch, workers)

        monkeypatch.setattr(localbatch, "run_local_batch", spying)
        resumed = ExperimentRunner(run_config=RunConfig(
            workers=4, journal=RunJournal(path), resume=True
        ))
        results = resumed.run_cells(cells)
        assert dispatched == []
        assert len(results) == len(cells)
        assert all(getattr(r, "ok", True) for r in results)


@pytest.mark.usefixtures("many_cpus")
class TestRunCellsSemantics:
    def test_duplicate_cells_execute_once(self):
        cell = ("bfs", "test-small", POLICIES["base4k"], fresh())
        runner = ExperimentRunner(run_config=RunConfig(workers=2))
        results = runner.run_cells([cell, cell, cell])
        assert results[0] is results[1] is results[2]

    def test_strict_mode_never_reaches_the_pool(self, monkeypatch):
        import repro.dist.localbatch as localbatch

        def forbidden(*args, **kwargs):
            raise AssertionError("strict mode must stay serial")

        monkeypatch.setattr(localbatch, "run_local_batch", forbidden)
        runner = ExperimentRunner(
            run_config=RunConfig(workers=4), capture_failures=False
        )
        cells = [
            ("bfs", "test-small", POLICIES["base4k"], fresh()),
            ("bfs", "test-small", POLICIES["thp"], fresh()),
        ]
        results = runner.run_cells(cells)
        assert len(results) == 2
        assert all(getattr(r, "ok", True) for r in results)

    def test_cached_cells_short_circuit(self, monkeypatch):
        import repro.dist.localbatch as localbatch

        runner = ExperimentRunner(run_config=RunConfig(workers=4))
        cells = fig07_cells()
        warm = runner.run_cells(cells)

        def forbidden(*args, **kwargs):
            raise AssertionError("cached batch must not re-dispatch")

        monkeypatch.setattr(localbatch, "run_local_batch", forbidden)
        again = runner.run_cells(cells)
        assert [id(r) for r in again] == [id(r) for r in warm]


@fork_only
@pytest.mark.usefixtures("many_cpus")
class TestPoolAdversity:
    def test_hung_worker_absorbed_as_watchdog_failure(self, monkeypatch):
        """A wedged worker's lease is refused renewal past the deadline
        grace, its cell settled as ``FAILED(watchdog)`` and never
        re-leased, and the batch completes."""
        hang_policy = "thp"
        original = ExperimentRunner._execute_cell

        def hanging(self, workload, dataset, policy, scenario):
            if policy.name == hang_policy:
                time.sleep(300.0)
            return original(self, workload, dataset, policy, scenario)

        monkeypatch.setattr(ExperimentRunner, "_execute_cell", hanging)
        runner = ExperimentRunner(run_config=RunConfig(
            workers=2, cell_deadline_seconds=0.5
        ))
        cells = [
            ("bfs", "test-small", POLICIES[hang_policy], fresh()),
            ("bfs", "test-small", POLICIES["base4k"], fresh()),
            ("bfs", "test-small", POLICIES["thp-opt"], fresh()),
        ]
        results = runner.run_cells(cells)
        assert isinstance(results[0], CellFailure)
        assert results[0].error == "watchdog"
        assert results[0] in runner.failures
        assert all(getattr(r, "ok", True) for r in results[1:])

    def test_crashed_worker_cell_reruns_in_parent(self, monkeypatch):
        """A worker that dies without reporting loses nothing: its lease
        expires, the cell is re-leased, and once its attempts are spent
        it runs in the parent."""
        parent_pid = os.getpid()
        crash_policy = "thp"
        original = ExperimentRunner._execute_cell

        def crashing(self, workload, dataset, policy, scenario):
            if policy.name == crash_policy and os.getpid() != parent_pid:
                os._exit(17)
            return original(self, workload, dataset, policy, scenario)

        monkeypatch.setattr(ExperimentRunner, "_execute_cell", crashing)
        runner = ExperimentRunner(run_config=RunConfig(workers=2))
        cells = [
            ("bfs", "test-small", POLICIES[crash_policy], fresh()),
            ("bfs", "test-small", POLICIES["base4k"], fresh()),
        ]
        results = runner.run_cells(cells)
        assert len(results) == 2
        assert all(getattr(r, "ok", True) for r in results)
        reference = ExperimentRunner().run_cell(*cells[0])
        assert results[0].kernel_cycles == reference.kernel_cycles

    def test_every_worker_wedged_finishes_in_parent(self, monkeypatch):
        """Both workers wedge on their first cell: those cells settle as
        ``FAILED(watchdog)``, and since a refused renewal is not worker
        contact the rest of the batch runs in the parent instead of
        waiting forever on workers that will never ask again."""
        parent_pid = os.getpid()
        original = ExperimentRunner._execute_cell

        def hanging(self, workload, dataset, policy, scenario):
            if os.getpid() != parent_pid:
                time.sleep(300.0)
            return original(self, workload, dataset, policy, scenario)

        monkeypatch.setattr(ExperimentRunner, "_execute_cell", hanging)
        runner = ExperimentRunner(run_config=RunConfig(
            workers=2, cell_deadline_seconds=0.5
        ))
        cells = [
            ("bfs", "test-small", POLICIES[name], fresh())
            for name in ("thp", "base4k", "thp-opt", "dbg")
        ]
        with time_limit(30):
            results = runner.run_cells(cells)
        wedged = [r for r in results if isinstance(r, CellFailure)]
        assert [r.error for r in wedged] == ["watchdog", "watchdog"]
        assert runner.failures == wedged
        serial = ExperimentRunner()
        for cell, result in zip(cells, results):
            if not isinstance(result, CellFailure):
                reference = serial.run_cell(*cell)
                assert result.kernel_cycles == reference.kernel_cycles

    def test_slow_graph_preparation_is_not_cell_time(self, monkeypatch):
        """Building the graph outlasts the deadline grace plus a lease,
        the simulation itself does not: the cell is ok, as it is
        serially."""
        original = ExperimentRunner._prepared_graph

        def slow(self, dataset_name, reorder, weighted):
            if (dataset_name, reorder, weighted) not in self._graph_cache:
                time.sleep(4.5)
            return original(self, dataset_name, reorder, weighted)

        monkeypatch.setattr(ExperimentRunner, "_prepared_graph", slow)
        runner = ExperimentRunner(run_config=RunConfig(
            workers=2, cell_deadline_seconds=0.5
        ))
        cells = [
            ("bfs", "test-small", POLICIES[name], fresh())
            for name in ("thp", "base4k")
        ]
        with time_limit(30):
            results = runner.run_cells(cells)
        assert all(getattr(r, "ok", False) for r in results)
        assert runner.failures == []

    def test_unbindable_socket_runs_the_batch_serially(
        self, monkeypatch, tmp_path
    ):
        """A temp dir too deep for a UNIX socket path: the batch runs in
        this process, with results and failures equal to a serial run."""
        deep = tmp_path / ("d" * 120)
        deep.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(deep))
        plan = FaultPlan.parse("compaction:1.0", seed=0)
        cells = fig07_cells()
        serial = ExperimentRunner(run_config=RunConfig(faults=plan))
        expected = serial.run_cells(cells)
        runner = ExperimentRunner(run_config=RunConfig(workers=2, faults=plan))
        with time_limit(30):
            results = runner.run_cells(cells)
        assert serial.failures
        assert runner.failures == serial.failures
        assert [getattr(r, "kernel_cycles", r) for r in results] == [
            getattr(r, "kernel_cycles", r) for r in expected
        ]


class TestPlanningPass:
    @pytest.mark.parametrize(
        "figure",
        [
            figures.fig01_thp_speedup,
            figures.fig03_tlb_miss_rates,
            figures.fig07_pressure_alloc_order,
        ],
        ids=lambda f: f.__name__,
    )
    def test_planned_cells_match_serial_call_order(self, figure):
        """The planning pass must record exactly the ``run_cell`` calls
        a serial run makes, in the same order — that order is what makes
        the parallel journal byte-identical to the serial one."""
        runner = ExperimentRunner()
        recorded: list[tuple] = []
        original = runner.run_cell

        def recording(workload, dataset, policy, scenario):
            recorded.append((workload, dataset, policy.name, scenario.name))
            return original(workload, dataset, policy, scenario)

        runner.run_cell = recording
        figure(runner, workloads=WORKLOADS, datasets=DATASETS)

        planner = figures._PlanningRunner(ExperimentRunner())
        figure.__wrapped__(planner, workloads=WORKLOADS, datasets=DATASETS)
        planned = [
            (w, d, p.name, s.name) for w, d, p, s in planner.cells
        ]
        assert planned == recorded
        assert planned  # the figure actually enumerates cells

    def test_planning_runner_records_nothing_real(self):
        planner = figures._PlanningRunner(ExperimentRunner())
        outcome = planner.run_cell(
            "bfs", "test-small", POLICIES["base4k"], fresh()
        )
        assert isinstance(outcome, CellFailure)
        assert outcome.error == "planning"
        assert planner._runner.failures == []
        assert planner.cells == [
            ("bfs", "test-small", POLICIES["base4k"], fresh())
        ]


class TestPermutationCache:
    def test_single_ordering_invocation_across_weight_variants(
        self, monkeypatch
    ):
        """Reorder permutations depend only on graph structure, so the
        weighted (SSSP) and unweighted graph variants of a dataset must
        share one ``ORDERINGS[...]`` invocation."""
        calls: list[int] = []
        original = ORDERINGS["dbg"]

        def counting(graph):
            calls.append(1)
            return original(graph)

        monkeypatch.setitem(ORDERINGS, "dbg", counting)
        runner = ExperimentRunner()
        unweighted, _ = runner._prepared_graph(
            "test-small", "dbg", weighted=False
        )
        weighted, _ = runner._prepared_graph(
            "test-small", "dbg", weighted=True
        )
        assert len(calls) == 1
        assert unweighted.num_edges == weighted.num_edges

    def test_clear_cache_drops_permutations(self, monkeypatch):
        calls: list[int] = []
        original = ORDERINGS["dbg"]

        def counting(graph):
            calls.append(1)
            return original(graph)

        monkeypatch.setitem(ORDERINGS, "dbg", counting)
        runner = ExperimentRunner()
        runner._prepared_graph("test-small", "dbg", weighted=False)
        runner.clear_cache()
        runner._prepared_graph("test-small", "dbg", weighted=False)
        assert len(calls) == 2
