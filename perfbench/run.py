"""The repo benchmark: host time of one-shot runs, sweeps and the
million-vertex tier, end to end and layer by layer.

    python3 perfbench/run.py --workload {oneshot,tournament,scale-1m} \\
        --seed N --seconds T --trace {0,1}

Run from the repository root.  Every measurement is a fresh child
process (``child.py``, or ``python -m repro run`` for ``oneshot``), one
at a time: closed loop, one client, serial cells.

``--trace 0`` times the workload with nothing wrapped and reports the
end-to-end metrics.  ``--trace 1`` runs one operation untraced and one
with the layer wrappers of ``layers.py`` installed, writes the spans to
``perfbench/out/``, prints the per-layer self-time table and reports
the per-layer metrics.  Every operation's simulated outcome is checked
against ``reference.json``; a mismatch, a failed cell or a non-zero exit
counts as a failed operation.  The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

import child
import layers

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

REFUSED_ENV = (
    "REPRO_SANITIZE",
    "REPRO_LOCKSAN",
    "REPRO_WORKERS",
    "PYTHONTRACEMALLOC",
    "PYTHONPROFILEIMPORTTIME",
)
"""Settings that change what is timed: sanitizers, worker pools and
interpreter tracing."""

SETUP_SAMPLES = {"oneshot": 7, "tournament": 7, "scale-1m": 3}
"""Set-ups per run, each in a fresh process; ``setup_s`` is their
median.  The scale-1m set-up builds kron-m, about 5 s each."""

CHILD_TIMEOUT_S = 120.0
"""How long a child may take beyond the seconds it is asked to measure:
set-up plus one slow operation, with room to spare."""

REPRO_RUN = [sys.executable, "-m", "repro", *child.ONESHOT_ARGV]
CHILD = [sys.executable, str(HERE / "child.py")]


@dataclass
class Exited:
    """A finished child process."""

    code: int
    stdout: str
    wall_s: float
    maxrss_mb: float

    def result(self) -> Optional[dict[str, Any]]:
        """The child's JSON result line, or None if it failed."""
        lines = self.stdout.strip().splitlines()
        if self.code != 0 or not lines:
            return None
        try:
            return json.loads(lines[-1])
        except ValueError:
            return None


def spawn(argv: list[str], spawn_ns: bool = False, seconds: float = 0) -> Exited:
    """Run one child to completion from the repository root, killing it
    after ``seconds`` plus ``CHILD_TIMEOUT_S``; wall time is spawn to
    exit, peak RSS is the child's own high-water mark."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    start = time.monotonic_ns()
    if spawn_ns:
        argv = [*argv, "--spawn-ns", str(start)]
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True
    )
    killer = threading.Timer(seconds + CHILD_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        stdout = proc.stdout.read()
        proc.stdout.close()
        _pid, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    end = time.monotonic_ns()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Exited(
        proc.returncode, stdout, (end - start) / 1e9, usage.ru_maxrss / 1024
    )


def warm_up(workload: str) -> None:
    """Untimed: byte-compile the package, as any installed copy is, and
    for ``oneshot`` run the reference cell once."""
    spawn([sys.executable, "-m", "compileall", "-q", str(ROOT / "src")])
    if workload == "oneshot":
        spawn(REPRO_RUN)


def setup_probe(workload: str, env_info: dict[str, Any]) -> float:
    done = spawn([*CHILD, "setup", "--workload", workload], spawn_ns=True)
    result = done.result()
    if result is None:
        raise SystemExit(f"run.py: {workload} set-up failed")
    env_info.update(engine=result["engine"], numpy=result["numpy"])
    return result["setup_s"]


def oneshot_op(reference: dict[str, str]) -> tuple[Exited, bool]:
    done = spawn(REPRO_RUN)
    ok = done.code == 0 and child.parse_summary(done.stdout) == reference
    return done, ok


def timed_run(args: argparse.Namespace, env_info: dict[str, Any]) -> dict:
    workload = args.workload
    warm_up(workload)
    setups: list[float] = []
    if workload == "oneshot":
        setups = [
            setup_probe(workload, env_info)
            for _ in range(SETUP_SAMPLES[workload])
        ]
        reference = child.load_reference(workload)["summary"]
        op_s: list[float] = []
        rss: list[float] = []
        failed = 0
        # Start another operation only if it should end in time.
        deadline = time.monotonic() + args.seconds
        while not op_s or time.monotonic() + op_s[-1] <= deadline:
            done, ok = oneshot_op(reference)
            op_s.append(done.wall_s)
            rss.append(done.maxrss_mb)
            failed += not ok
        cells = len(op_s)
        peak_rss_mb = max(rss)
    else:
        for _ in range(SETUP_SAMPLES[workload] - 1):
            setups.append(setup_probe(workload, env_info))
        done = spawn(
            [
                *CHILD, "ops", "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
            ],
            spawn_ns=True,
            seconds=args.seconds,
        )
        result = done.result()
        if result is None:
            raise SystemExit(f"run.py: {workload} operations did not finish")
        setups.append(result["setup_s"])
        op_s = result["op_s"]
        cells = result["cells"]
        failed = result["failed"]
        peak_rss_mb = done.maxrss_mb
    attempted = len(op_s)
    shown = [round(s, 3) for s in op_s[:40]]
    print(
        f"# {workload}: {len(op_s)} op(s), {failed} failed, {cells} cell(s), "
        f"op seconds {shown}{' ...' if len(op_s) > len(shown) else ''}, "
        f"set-ups {[round(s, 3) for s in setups]}"
    )
    metrics = {
        "setup_s": statistics.median(setups),
        "op_s_p50": statistics.median(op_s),
        "cells_per_s": cells / sum(op_s),
        "peak_rss_mb": peak_rss_mb,
        "ok_share": (attempted - failed) / attempted,
    }
    return report("end_to_end", attempted, failed, metrics)


def traced_run(args: argparse.Namespace, env_info: dict[str, Any]) -> dict:
    """One untraced and one traced operation of the workload, each in
    its own process, including set-up."""
    workload = args.workload
    warm_up(workload)
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    spans = out / f"{workload}-seed{args.seed}.spans.jsonl"
    if workload == "oneshot":
        reference = child.load_reference(workload)["summary"]
        untraced, untraced_ok = oneshot_op(reference)
        traced = spawn(
            [*CHILD, "oneshot-traced", "--spans", str(spans)], spawn_ns=True
        )
        result = traced.result()
        if result is None:
            raise SystemExit("run.py: traced oneshot failed")
        traced_ok = result["code"] == 0 and result["summary"] == reference
        same = result["summary"] == child.parse_summary(untraced.stdout)
    else:
        ops = [
            *CHILD, "ops", "--workload", workload, "--seed", str(args.seed),
            "--seconds", "0",
        ]
        untraced = spawn(ops, spawn_ns=True)
        traced = spawn([*ops, "--spans", str(spans)], spawn_ns=True)
        plain, result = untraced.result(), traced.result()
        if plain is None or result is None:
            raise SystemExit(f"run.py: traced {workload} failed")
        untraced_ok = plain["failed"] == 0
        traced_ok = result["failed"] == 0
        same = plain["outcome"] == result["outcome"]
    env_info.update(engine=result["engine"], numpy=result["numpy"])
    measured = result["layers"]
    attributed = sum(measured[m] for m in layers.LAYER_METRICS.values())
    measured["other_s"] = traced.wall_s - attributed
    measured["traced_wall_s"] = traced.wall_s
    measured["untraced_wall_s"] = untraced.wall_s
    measured["trace_overhead_s"] = traced.wall_s - untraced.wall_s
    print_layer_table(workload, measured, spans)
    if not same:
        print("# traced and untraced simulated outcomes differ")
    failed = (not untraced_ok) + (not (traced_ok and same))
    return report("per_layer", 2, failed, measured)


def print_layer_table(workload: str, measured: dict, spans: Path) -> None:
    wall = measured["traced_wall_s"]
    print(f"# {workload}: per-layer self time (spans in {spans.relative_to(ROOT)})")
    print(f"# {'layer':34s} {'self s':>9s} {'share':>7s}")
    for name in [*layers.LAYER_METRICS.values(), "other_s"]:
        value = measured[name]
        print(f"# {name:34s} {value:9.3f} {value / wall:7.1%}")
    print(
        f"# traced wall {wall:.3f} s, untraced wall "
        f"{measured['untraced_wall_s']:.3f} s, tracing overhead "
        f"{measured['trace_overhead_s']:+.3f} s"
    )


def report(section: str, attempted: int, failed: int, values: dict) -> dict:
    """The result object, with each metric's unit as ``BENCHMARK.json``
    declares it in ``section``; the metric names must match exactly."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {metric["name"]: metric["unit"] for metric in spec[section]}
    if set(values) != set(units):
        raise SystemExit(
            f"run.py: measured {sorted(values)} but BENCHMARK.json "
            f"declares {sorted(units)}"
        )
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in values.items()
        },
    }


def refuse(message: str) -> None:
    print(f"run.py: {message}", file=sys.stderr)
    raise SystemExit(2)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", choices=child.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for name in REFUSED_ENV:
        if name in os.environ:
            refuse(f"refusing to time with {name} set")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        refuse(f"no repro package under {ROOT / 'src'}")
    env_info: dict[str, Any] = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "workload": args.workload,
        "seed": args.seed,
    }
    if args.trace:
        outcome = traced_run(args, env_info)
    else:
        outcome = timed_run(args, env_info)
    print(f"# env: {json.dumps(env_info, sort_keys=True)}")
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
