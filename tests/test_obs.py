"""Observability layer: tracer, schema, exporters, RunConfig and the
`repro.api` facade (docs/observability.md)."""

import json
import os

import pytest

from repro.analysis.lint import lint_text
from repro.api import (
    ExperimentRunner,
    Machine,
    RunConfig,
    ThpPolicy,
    Tracer,
    create_workload,
    load_dataset,
)
from repro.cli import main
from repro.config import tiny
from repro.errors import ConfigError
from repro.experiments.figures import fig07_pressure_alloc_order
from repro.obs import (
    EVENT_NAMES,
    EVENT_SCHEMA,
    MetricsRegistry,
    read_trace_jsonl,
    summarize,
    to_chrome_trace,
    validate_event,
    validate_events,
    validate_trace_records,
    write_trace_jsonl,
)
from repro.obs.events import COMMON_FIELDS
from repro.obs.export import trace_lines
from repro.runstate.serialize import decode_result, encode_result

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "trace_schema.json")


def _traced_metrics(dataset="test-small", workload="bfs", policy=None):
    machine = Machine(tiny(), policy or ThpPolicy.always(), trace=True)
    graph = load_dataset(dataset).graph
    return machine.run(create_workload(workload, graph), dataset=dataset)


class TestSchema:
    def test_golden_schema_pinned(self):
        """The event taxonomy is a public contract: changing a name,
        field or unit must be a conscious golden-file update."""
        with open(GOLDEN) as fh:
            golden = json.load(fh)
        assert golden["common_fields"] == COMMON_FIELDS
        assert golden["events"] == EVENT_SCHEMA

    def test_units_are_known_families(self):
        allowed = {"count", "cycles", "name", "frames", "pages", "index"}
        for name, fields in EVENT_SCHEMA.items():
            for field_name, unit in fields.items():
                assert unit in allowed, (name, field_name, unit)

    def test_validate_event_rejects_unknown_name(self):
        record = {"seq": 0, "cycles": 0, "name": "nope.event"}
        assert validate_event(record)

    def test_validate_event_rejects_missing_field(self):
        record = {"seq": 0, "cycles": 0, "name": "thp.promotion"}
        problems = validate_event(record)
        assert any("vma" in p for p in problems)

    def test_validate_event_rejects_undeclared_field(self):
        record = {
            "seq": 0, "cycles": 0, "name": "swap.out",
            "pages": 1, "extra": 1,
        }
        problems = validate_event(record)
        assert any("extra" in p for p in problems)


class TestTracer:
    def test_emit_stamps_seq_and_clock(self):
        clock = {"now": 100}
        tracer = Tracer(clock=lambda: clock["now"])
        tracer.emit("swap.out", pages=2)
        clock["now"] = 250
        tracer.emit("swap.in", pages=2)
        first, second = tracer.events
        assert (first["seq"], first["cycles"]) == (0, 100)
        assert (second["seq"], second["cycles"]) == (1, 250)

    def test_metrics_registry_counts_events_and_fields(self):
        tracer = Tracer()
        tracer.emit("swap.out", pages=3)
        tracer.emit("swap.out", pages=4)
        snap = tracer.metrics.snapshot()
        assert snap["counters"]["event.swap.out"] == 2
        assert snap["counters"]["swap.out.pages"] == 7

    def test_drain_resets_everything(self):
        tracer = Tracer()
        tracer.emit("swap.out", pages=1)
        events = tracer.drain()
        assert len(events) == 1
        assert tracer.events == []
        assert tracer.metrics.snapshot() == {"counters": {}, "gauges": {}}
        tracer.emit("swap.in", pages=1)
        assert tracer.events[0]["seq"] == 0  # seq restarts per drain

    def test_registry_gauges(self):
        registry = MetricsRegistry()
        registry.gauge("free_frames", 42)
        registry.gauge("free_frames", 17)
        assert registry.snapshot()["gauges"]["free_frames"] == 17


class TestMachineTracing:
    def test_traced_run_emits_valid_schema(self):
        metrics = _traced_metrics()
        assert metrics.trace, "traced run produced no events"
        assert validate_events(metrics.trace) == []
        names = {event["name"] for event in metrics.trace}
        assert names <= set(EVENT_NAMES)
        # The three run phases always bracket the trace.
        phases = [
            e["phase"] for e in metrics.trace if e["name"] == "phase.begin"
        ]
        assert phases == ["load", "init", "compute"]

    def test_obs_metrics_snapshot_rides_on_run_metrics(self):
        metrics = _traced_metrics()
        counters = metrics.obs_metrics["counters"]
        assert counters["event.phase.begin"] == 3
        assert counters["event.phase.end"] == 3

    def test_tracing_off_is_empty_and_identical(self):
        on = _traced_metrics()
        machine = Machine(tiny(), ThpPolicy.always())
        graph = load_dataset("test-small").graph
        off = machine.run(create_workload("bfs", graph), dataset="test-small")
        assert off.trace == [] and off.obs_metrics == {}
        assert off.total_cycles == on.total_cycles
        assert off.translation.total_walks == on.translation.total_walks

    def test_trace_round_trips_through_journal_codec(self):
        metrics = _traced_metrics()
        decoded = decode_result(
            json.loads(json.dumps(encode_result(metrics)))
        )
        assert decoded.trace == metrics.trace
        assert decoded.obs_metrics == metrics.obs_metrics


class TestRunConfig:
    def test_defaults_validate(self):
        config = RunConfig()
        assert config.workers == 1 and config.trace is False

    def test_rejects_nonsense(self):
        with pytest.raises(ConfigError):
            RunConfig(workers=-1)
        with pytest.raises(ConfigError):
            RunConfig(retries=-1)
        with pytest.raises(ConfigError):
            RunConfig(cell_budget=0)
        with pytest.raises(ConfigError):
            RunConfig(resume=True)  # resume needs a journal

    def test_normalizes_journal_path_and_fault_string(self, tmp_path):
        from repro.faults import FaultPlan
        from repro.runstate import RunJournal

        config = RunConfig(
            journal=str(tmp_path / "j.jsonl"), faults="compaction:1.0"
        )
        assert isinstance(config.journal, RunJournal)
        assert isinstance(config.faults, FaultPlan)

    def test_unknown_kwarg_is_type_error(self):
        with pytest.raises(TypeError):
            ExperimentRunner(wrkers=4)

    @pytest.mark.parametrize(
        "name", ["workers", "journal", "fault_plan", "max_retries"]
    )
    def test_flat_run_kwargs_are_type_errors(self, name):
        """Run knobs go through ``run_config=`` only."""
        with pytest.raises(TypeError):
            ExperimentRunner(**{name: None})

    def test_replace_revalidates_and_mirrors_are_gone(self):
        """Knobs live on ``run_config`` only; writes go through
        ``replace``, which re-validates."""
        runner = ExperimentRunner()
        runner.run_config = runner.run_config.replace(cell_budget=10)
        assert runner.run_config.cell_budget == 10
        with pytest.raises(ConfigError):
            runner.run_config.replace(retries=-1)
        for name in (
            "fault_plan", "max_retries", "cell_budget", "journal",
            "resume", "cell_cycles", "cell_deadline_seconds", "workers",
        ):
            assert not hasattr(runner, name), name


class TestHarnessTraceLog:
    def _cells(self):
        from repro.api import POLICIES, SCENARIOS

        return [
            ("bfs", "test-small", POLICIES["base4k"], SCENARIOS["fresh"]),
            ("bfs", "test-small", POLICIES["thp"], SCENARIOS["fresh"]),
        ]

    def _runner(self, **kwargs):
        return ExperimentRunner(
            config=tiny(),
            run_config=RunConfig(trace=True, **kwargs),
            datasets=("test-small",),
        )

    def test_trace_log_accumulates_in_spec_order(self):
        runner = self._runner()
        runner.run_cells(self._cells())
        assert [entry["cell"]["policy"] for entry in runner.trace_log] == [
            "base4k", "thp",
        ]
        for entry in runner.trace_log:
            assert validate_events(entry["events"]) == []

    def test_cache_hits_do_not_duplicate_trace(self):
        runner = self._runner()
        cells = self._cells()
        runner.run_cells(cells)
        runner.run_cells(cells)
        assert len(runner.trace_log) == 2

    def test_serial_vs_parallel_traces_byte_identical(self):
        serial = ExperimentRunner(
            run_config=RunConfig(trace=True, workers=1)
        )
        parallel = ExperimentRunner(
            run_config=RunConfig(trace=True, workers=4)
        )
        kwargs = {"workloads": ("bfs",), "datasets": ("kron-s",)}
        serial_fig = fig07_pressure_alloc_order(serial, **kwargs)
        parallel_fig = fig07_pressure_alloc_order(parallel, **kwargs)
        # Figure output and trace bytes both match the serial run.
        assert parallel_fig.to_json() == serial_fig.to_json()
        assert serial.trace_log, "traced sweep produced no trace"
        assert trace_lines(parallel.trace_log) == trace_lines(
            serial.trace_log
        )


class TestExporters:
    def test_jsonl_round_trip(self, tmp_path):
        runner = ExperimentRunner(
            config=tiny(),
            run_config=RunConfig(trace=True),
            datasets=("test-small",),
        )
        from repro.api import POLICIES, SCENARIOS

        runner.run_cell(
            "bfs", "test-small", POLICIES["thp"], SCENARIOS["fresh"]
        )
        path = str(tmp_path / "trace.jsonl")
        count = write_trace_jsonl(path, runner.trace_log)
        records = read_trace_jsonl(path)
        assert len(records) == count > 0
        assert validate_trace_records(records) == []
        # Cell coordinates ride on every line.
        assert records[0]["workload"] == "bfs"
        assert records[0]["policy"] == "thp"

    def test_chrome_trace_structure(self):
        metrics = _traced_metrics()
        records = [
            dict(
                {
                    "workload": "bfs", "dataset": "test-small",
                    "policy": "thp", "scenario": "fresh",
                },
                **event,
            )
            for event in metrics.trace
        ]
        chrome = to_chrome_trace(records)
        assert chrome["displayTimeUnit"] == "ns"
        events = chrome["traceEvents"]
        phases = [e["ph"] for e in events if e["ph"] in ("B", "E")]
        assert phases.count("B") == phases.count("E") == 3
        assert any(e["ph"] == "M" for e in events)  # process_name metadata

    def test_summary_names_cells_and_counts(self):
        metrics = _traced_metrics()
        records = [
            dict(
                {
                    "workload": "bfs", "dataset": "test-small",
                    "policy": "thp", "scenario": "fresh",
                },
                **event,
            )
            for event in metrics.trace
        ]
        text = summarize(records)
        assert "bfs/test-small" in text
        assert "phase.begin" in text

    def test_summarize_empty(self):
        assert "empty" in summarize([])


class TestCli:
    def test_run_with_trace_then_summary_and_export(self, tmp_path, capsys):
        trace_path = str(tmp_path / "run.jsonl")
        assert (
            main(
                [
                    "run", "--workload", "bfs", "--dataset", "test-small",
                    "--policy", "thp", "--scenario", "fresh",
                    "--profile", "tiny", "--trace", trace_path,
                ]
            )
            == 0
        )
        assert os.path.exists(trace_path)
        capsys.readouterr()

        assert main(["trace", "summary", trace_path]) == 0
        out = capsys.readouterr().out
        assert "bfs/test-small" in out

        out_path = str(tmp_path / "run.json")
        assert main(["trace", "export", trace_path, "--out", out_path]) == 0
        with open(out_path) as fh:
            chrome = json.load(fh)
        assert "traceEvents" in chrome

    def test_trace_summary_rejects_garbage(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        assert main(["trace", "summary", str(path)]) == 2


class TestRep008:
    def test_flags_unguarded_emit(self):
        findings = lint_text(
            "def f(tracer):\n"
            "    tracer.emit('thp.promotion')\n"
        )
        assert [f.rule for f in findings] == ["REP008"]

    def test_accepts_guarded_emit(self):
        assert (
            lint_text(
                "def f(self):\n"
                "    tracer = self.tracer\n"
                "    if tracer is not None:\n"
                "        tracer.emit('thp.promotion')\n"
            )
            == []
        )

    def test_guard_does_not_leak_into_else(self):
        findings = lint_text(
            "def f(tracer):\n"
            "    if tracer is not None:\n"
            "        pass\n"
            "    else:\n"
            "        tracer.emit('thp.promotion')\n"
        )
        assert [f.rule for f in findings] == ["REP008"]

    def test_and_chain_guard_accepted(self):
        assert (
            lint_text(
                "def f(tracer, n):\n"
                "    if n > 0 and tracer is not None:\n"
                "        tracer.emit('swap.out', pages=n)\n"
            )
            == []
        )

    def test_non_tracer_emit_ignored(self):
        assert lint_text("def f(bus):\n    bus.emit('x')\n") == []


class TestApiFacade:
    def test_all_names_resolve(self):
        import repro.api as api

        for name in api.__all__:
            assert getattr(api, name) is not None

