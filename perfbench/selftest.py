"""Quick self-test of the benchmark's layer wrappers.

    python3 perfbench/selftest.py

Runs a miniature of each workload on the ``test-small`` dataset and the
``tiny`` profile (about a second in all), once untraced and once with
the wrappers of ``layers.py`` installed, and checks that:

- every wrapper fired on the workloads that should exercise it;
- each layer is patched at the name where the program looks it up
  (e.g. the ``load_dataset`` bound in ``repro.experiments.harness``);
- spans nest, so self times never exceed the traced wall time;
- traced and untraced runs produce the same simulated outcomes;
- the originals are back after restore, with no wrapper left anywhere;
- the benchmark's files pass ``ruff check`` (skipped, with a notice,
  where ruff is not installed).

Exits 0 when every check holds and 1 otherwise.
"""

from __future__ import annotations

import io
import shutil
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stdout
from pathlib import Path
from typing import Any, Callable

import child
import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

CELL_LAYERS = {
    "graph.load_dataset",
    "workloads.stream",
    "bench.stream_hash",
    "machine.translate",
    "machine.run",
    "tlb.simulate",
    "mem.machine_init",
    "mem.touch",
    "mem.khugepaged",
    "mem.scenario",
    "experiments.run_cell",
}
"""Layers every simulated cell goes through."""


def mini_oneshot(scratch: str) -> dict[str, Any]:
    import repro.cli

    text = io.StringIO()
    with redirect_stdout(text):
        code = repro.cli.main(
            [
                "run", "--workload", "bfs", "--dataset", "test-small",
                "--profile", "tiny", "--policy", "thp",
            ]
        )
    return {"code": code, "summary": child.parse_summary(text.getvalue())}


def miniature(spec: child.Workload) -> Callable[[str], dict]:
    """One operation of a workload's own code path, on ``spec``."""

    def run(scratch: str) -> dict[str, Any]:
        return child.run_op(spec, child.make_runner(spec, scratch, 0), 0)

    return run


MINI_TOURNAMENT = child.Workload(
    "bfs", "test-small", "tiny", 2,
    policies=("hawkeye", "paper-selective"),
    scenarios=("fresh", "oversubscribed"),
    tournament=True,
)
MINI_SCALE = child.Workload(
    "pagerank", "test-small", "tiny", 2,
    policies=child.WORKLOADS["scale-1m"].policies, scenarios=("fresh",),
)

MINIATURES: dict[str, tuple[Callable[[str], dict], set[str]]] = {
    "oneshot": (mini_oneshot, CELL_LAYERS),
    "tournament": (
        miniature(MINI_TOURNAMENT),
        CELL_LAYERS
        | {"graph.reorder", "machine.swap", "policy.epoch", "runstate.journal"},
    ),
    "scale-1m": (miniature(MINI_SCALE), CELL_LAYERS),
}
"""Each workload's miniature and the layers it must exercise."""


def every_binding() -> list[tuple[str, Any]]:
    """Every value bound in a loaded ``repro`` module, in a class
    defined there, or in the reorder table."""
    from repro.graph.reorder import ORDERINGS

    found = [(f"ORDERINGS[{k!r}]", v) for k, v in ORDERINGS.items()]
    for module in layers.repro_modules():
        for name, value in vars(module).items():
            found.append((f"{module.__name__}.{name}", value))
            if isinstance(value, type) and value.__module__ == module.__name__:
                for attr, member in vars(value).items():
                    found.append((f"{module.__name__}.{name}.{attr}", member))
    return found


def check_installation(installation: layers.Installation) -> list[str]:
    import repro.experiments.harness as harness
    import repro.graph.datasets as datasets
    from repro.machine.machine import Machine

    problems = [
        f"{patch.label} does not hold its wrapper"
        for patch in installation.patches
        if patch.current() is not patch.wrapper
    ]
    for where, value in (
        ("repro.experiments.harness.load_dataset", harness.load_dataset),
        ("repro.graph.datasets.load_dataset", datasets.load_dataset),
        ("Machine.run", Machine.run),
    ):
        if getattr(value, "layer", None) is None:
            problems.append(f"{where} is not wrapped")
    missing = set(layers.LAYER_METRICS) - installation.layers() - {"cli.import"}
    missing.discard("bench.stream_hash")  # recorded inside workloads.stream
    problems.extend(f"no wrapper for layer {name}" for name in sorted(missing))
    return problems


def check_restored(patches: list[layers.Patch]) -> list[str]:
    problems = [
        f"{patch.label} was not restored"
        for patch in patches
        if patch.current() is not patch.original
    ]
    wrappers = {id(patch.wrapper) for patch in patches}
    problems.extend(
        f"{where} still holds a wrapper"
        for where, value in every_binding()
        if id(value) in wrappers
    )
    return problems


def check_spans(log: layers.SpanLog, wall_ns: int) -> list[str]:
    problems = []
    for name, start, end, parent, _cell in log.spans:
        if parent is not None:
            _, p_start, p_end, _, _ = log.spans[parent]
            if not p_start <= start <= end <= p_end:
                problems.append(f"span {name} escapes its parent")
    attributed = sum(log.self_ns().values())
    if not 0 <= attributed <= wall_ns:
        problems.append(
            f"self times sum to {attributed} ns of a {wall_ns} ns wall"
        )
    return problems


def check_ruff() -> list[str]:
    ruff = shutil.which("ruff")
    if ruff is None:
        print("selftest: ruff is not installed; lint check skipped")
        return []
    done = subprocess.run(
        [ruff, "check", str(HERE.relative_to(ROOT))],
        cwd=ROOT, capture_output=True, text=True,
    )
    return [] if done.returncode == 0 else [f"ruff:\n{done.stdout}"]


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    problems: list[str] = []
    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as scratch:
        for name, (miniature, expected) in MINIATURES.items():
            plain = miniature(tempfile.mkdtemp(dir=scratch))
            log = layers.SpanLog()
            installation = layers.install(log)
            problems.extend(check_installation(installation))
            patches = list(installation.patches)
            start = time.monotonic_ns()
            try:
                traced = miniature(tempfile.mkdtemp(dir=scratch))
            finally:
                wall_ns = time.monotonic_ns() - start
                installation.restore()
            problems.extend(check_restored(patches))
            problems.extend(check_spans(log, wall_ns))
            if traced != plain:
                problems.append(f"{name}: traced outcome differs")
            if "code" in plain and plain["code"] != 0:
                problems.append(f"{name}: repro run exited {plain['code']}")
            silent = expected - set(log.entered)
            problems.extend(
                f"{name}: layer {layer} never fired" for layer in sorted(silent)
            )
    problems.extend(check_ruff())
    for problem in problems:
        print(f"selftest: FAIL {problem}")
    if not problems:
        print(f"selftest: ok ({len(MINIATURES)} miniatures)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
