"""Benchmark worker process: set-up, timed operations, traced runs.

``run.py`` starts one of these per measurement, with ``src`` on
``PYTHONPATH``; each mode prints one JSON object as its last line::

    python3 perfbench/child.py setup --workload W --spawn-ns N
    python3 perfbench/child.py ops --workload W --seed S --seconds T \\
        --spawn-ns N [--spans PATH]
    python3 perfbench/child.py oneshot-traced --spawn-ns N --spans PATH

``--spawn-ns`` is the driver's ``time.monotonic_ns()`` just before it
started this process, so set-up time counts interpreter start.  With
``--spans`` the layer wrappers of ``layers.py`` are installed and the
spans are written to PATH; without it nothing is wrapped.

``python3 perfbench/child.py reference`` rewrites ``reference.json``
from the current program: the simulated outcome of every cell the
workloads run, which every timed operation is checked against.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import random
import sys
import tempfile
import time
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
SCRATCH = HERE / "out"


@dataclass(frozen=True)
class Workload:
    """What one operation runs.  A tournament ranks ``policies`` over
    ``scenarios`` with a journal; otherwise the operation runs each of
    ``policies`` under each of ``scenarios`` as plain cells."""

    kernel: str
    dataset: str
    profile: str
    pagerank_iterations: int = 3
    policies: tuple[str, ...] = ()
    scenarios: tuple[str, ...] = ()
    tournament: bool = False


TOURNAMENT_POLICIES = (
    "greedy-always",
    "madvise",
    "khugepaged",
    "paper-selective",
    "hawkeye",
    "hawkeye-bits",
    "ingens",
    "autotuner",
)
"""The stock tournament lineup, pinned here so the reference holds."""

WORKLOADS = {
    "oneshot": Workload("bfs", "kron-s", "scaled"),
    "tournament": Workload(
        "bfs", "kron-s", "scaled",
        policies=TOURNAMENT_POLICIES,
        scenarios=("fresh", "fragmented:0.8", "constrained:0.5", "oversubscribed"),
        tournament=True,
    ),
    "scale-1m": Workload(
        "pagerank", "kron-m", "scaled-1m", 2,
        policies=("never", "thp"), scenarios=("fresh",),
    ),
}

ONESHOT_ARGV = (
    "run", "--workload", "bfs", "--dataset", "kron-s",
    "--policy", "thp", "--scenario", "fresh",
)
"""The reference cell, as ``python -m repro`` arguments."""


def check_untraced() -> None:
    """Refuse to time under a Python tracer, profiler or tracemalloc."""
    import tracemalloc

    if sys.gettrace() or sys.getprofile() or tracemalloc.is_tracing():
        raise SystemExit("child: refusing to time with tracing on")


def parse_summary(text: str) -> dict[str, str]:
    """The ``repro run`` report as a dict: its header line plus every
    ``key : value`` line."""
    lines = text.strip().splitlines()
    if not lines:
        return {}
    summary = {"header": lines[0]}
    for line in lines[1:]:
        key, _, value = line.partition(":")
        summary[key.strip()] = value.strip()
    return summary


def cell_id(result: Any) -> str:
    if result.ok:
        policy = result.context["policy"]
        scenario = result.context["scenario"]
    else:
        policy, scenario = result.policy, result.scenario
    return f"{result.workload}/{result.dataset}/{policy}/{scenario}"


def cell_digest(result: Any) -> dict[str, Any]:
    """A cell's simulated outcome, the part every run must reproduce."""
    if not result.ok:
        return {"failed": str(result)}
    translation = result.translation
    return {
        "kernel_cycles": result.kernel_cycles,
        "accesses": translation.total_accesses,
        "l1_misses": translation.total_l1_misses,
        "walks": translation.total_walks,
        "huge_bytes": result.huge_bytes,
        "swap_ins": result.swap_ins,
    }


def make_runner(spec: Workload, scratch: str, index: int) -> Any:
    """A fresh runner for one operation of ``spec``; a tournament
    journals to a new file under ``scratch``."""
    from repro.config import get_profile
    from repro.experiments.harness import ExperimentRunner
    from repro.experiments.runconfig import RunConfig
    from repro.runstate.journal import RunJournal

    journal = None
    if spec.tournament:
        journal = RunJournal(os.path.join(scratch, f"journal-{index}.jsonl"))
    runner = ExperimentRunner(
        config=get_profile(spec.profile),
        run_config=RunConfig(journal=journal),
        pagerank_iterations=spec.pagerank_iterations,
        datasets=(spec.dataset,),
    )
    config = runner.run_config
    if config.trace or config.sanitize or config.workers != 1:
        raise SystemExit("child: runner is not serial and untraced")
    return runner


def set_up(spec: Workload, scratch: str) -> Any:
    """Everything in front of the first timed operation: the package
    import every entry point pays, the dataset and the runner."""
    import repro.cli  # noqa: F401
    from repro.graph.datasets import load_dataset
    from repro.workloads.registry import workload_needs_weights

    load_dataset(spec.dataset, weighted=workload_needs_weights(spec.kernel))
    return make_runner(spec, scratch, 0)


def run_op(spec: Workload, runner: Any, seed: int) -> dict[str, Any]:
    """One timed operation: a whole tournament, or every policy under
    every scenario.  The seed orders the policies; the simulated results
    do not depend on the order."""
    policies = random.Random(seed).sample(spec.policies, len(spec.policies))
    if spec.tournament:
        from repro.policy.tournament import run_tournament

        board = run_tournament(
            runner,
            policies=policies,
            scenarios=spec.scenarios,
            workloads=(spec.kernel,),
        )
        # Every cell the sweep resolved, including the baselines.
        results = list(runner._cache.values())
        return {
            "cells": {cell_id(r): cell_digest(r) for r in results},
            "leaderboard": board.to_json(),
        }
    from repro.experiments.parse import parse_policy, parse_scenario

    cells = [
        (
            spec.kernel,
            spec.dataset,
            parse_policy(policy, dataset=spec.dataset, config=runner.config),
            parse_scenario(scenario),
        )
        for policy in policies
        for scenario in spec.scenarios
    ]
    results = runner.run_cells(cells)
    return {"cells": {cell_id(r): cell_digest(r) for r in results}}


def load_reference(name: str) -> dict[str, Any]:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))[name]


def matches_reference(name: str, outcome: dict[str, Any]) -> bool:
    """Whether one operation reproduced every cell of the reference,
    and no other, plus its leaderboard."""
    expected = load_reference(name)
    return outcome["cells"] == expected["cells"] and outcome.get(
        "leaderboard"
    ) == expected.get("leaderboard")


def environment(name: str) -> dict[str, str]:
    """The numpy version and the TLB engine ``auto`` resolves to on the
    workload's profile.  Called after timing: resolving runs the
    engine's one-time self-check."""
    import numpy

    from repro.config import get_profile
    from repro.experiments.runconfig import RunConfig
    from repro.tlb.engine import make_hierarchy

    tlb = get_profile(WORKLOADS[name].profile).tlb
    engine = make_hierarchy(RunConfig().tlb_engine, tlb).engine
    return {"engine": engine, "numpy": numpy.__version__}


def cmd_setup(args: argparse.Namespace) -> dict[str, Any]:
    check_untraced()
    with tempfile.TemporaryDirectory(dir=SCRATCH) as scratch:
        set_up(WORKLOADS[args.workload], scratch)
        setup_s = (time.monotonic_ns() - args.spawn_ns) / 1e9
    return {"setup_s": setup_s, **environment(args.workload)}


def cmd_ops(args: argparse.Namespace) -> dict[str, Any]:
    log = installation = None
    if args.spans:
        import layers

        log = layers.SpanLog()
        with log.span("cli.import"):
            import repro.cli  # noqa: F401
        installation = layers.install(log)
    else:
        check_untraced()
    name = args.workload
    spec = WORKLOADS[name]
    with tempfile.TemporaryDirectory(dir=SCRATCH) as scratch:
        runner = set_up(spec, scratch)
        setup_s = (time.monotonic_ns() - args.spawn_ns) / 1e9
        op_s: list[float] = []
        cells = failed = 0
        outcome: dict[str, Any] = {}
        deadline = time.perf_counter() + args.seconds
        while True:
            start = time.perf_counter()
            try:
                outcome = run_op(spec, runner, args.seed)
            except Exception as exc:  # an operation that raises has failed
                traceback.print_exc()
                outcome = {"cells": {}, "error": repr(exc)}
            end = time.perf_counter()
            op_s.append(end - start)
            cells += len(outcome["cells"])
            failed += not matches_reference(name, outcome)
            journal = runner.run_config.journal
            journal_bytes = os.path.getsize(journal.path) if journal else 0
            # Start another operation only if it should end in time.
            if end + op_s[-1] > deadline:
                break
            runner = make_runner(spec, scratch, len(op_s))
        result = {
            "setup_s": setup_s,
            "op_s": op_s,
            "cells": cells,
            "failed": failed,
            "outcome": outcome,
        }
    if log is not None:
        installation.restore()
        log.write(args.spans, args.spawn_ns)
        result["layers"] = layers.layer_metrics(log)
        result["layers"]["runstate.journal_bytes"] = journal_bytes
    result.update(environment(name))
    return result


def cmd_oneshot_traced(args: argparse.Namespace) -> dict[str, Any]:
    """The reference cell as a cold ``repro run`` process, traced."""
    import layers

    log = layers.SpanLog()
    with log.span("cli.import"):
        import repro.cli
    installation = layers.install(log)
    text = io.StringIO()
    with redirect_stdout(text):
        code = repro.cli.main(list(ONESHOT_ARGV))
    installation.restore()
    log.write(args.spans, args.spawn_ns)
    metrics = layers.layer_metrics(log)
    metrics["runstate.journal_bytes"] = 0
    return {"code": code, "summary": parse_summary(text.getvalue()),
            "layers": metrics, **environment("oneshot")}


def cmd_reference(args: argparse.Namespace) -> dict[str, Any]:
    """Record every workload's simulated outcomes at this commit."""
    import repro.cli

    text = io.StringIO()
    with redirect_stdout(text):
        if repro.cli.main(list(ONESHOT_ARGV)) != 0:
            raise SystemExit("child: the reference cell failed")
    reference: dict[str, Any] = {
        "oneshot": {"summary": parse_summary(text.getvalue())}
    }
    with tempfile.TemporaryDirectory(dir=SCRATCH) as scratch:
        for name in ("tournament", "scale-1m"):
            spec = WORKLOADS[name]
            reference[name] = run_op(spec, set_up(spec, scratch), 0)
    REFERENCE.write_text(
        json.dumps(reference, indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return {"written": str(REFERENCE.relative_to(HERE.parent))}


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="child.py")
    sub = parser.add_subparsers(dest="mode", required=True)
    setup = sub.add_parser("setup")
    setup.add_argument("--workload", choices=WORKLOADS, required=True)
    setup.add_argument("--spawn-ns", type=int, required=True)
    ops = sub.add_parser("ops")
    ops.add_argument("--workload", choices=WORKLOADS, required=True)
    ops.add_argument("--seed", type=int, required=True)
    ops.add_argument("--seconds", type=float, required=True)
    ops.add_argument("--spawn-ns", type=int, required=True)
    ops.add_argument("--spans", default=None)
    traced = sub.add_parser("oneshot-traced")
    traced.add_argument("--spawn-ns", type=int, required=True)
    traced.add_argument("--spans", required=True)
    sub.add_parser("reference")
    args = parser.parse_args(argv)
    SCRATCH.mkdir(exist_ok=True)
    handler = {
        "setup": cmd_setup,
        "ops": cmd_ops,
        "oneshot-traced": cmd_oneshot_traced,
        "reference": cmd_reference,
    }[args.mode]
    print(json.dumps(handler(args), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
