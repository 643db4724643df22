"""Distributed chaos scenarios: the ``repro.dist`` layer under fire.

Five scenarios put the coordinator/worker topology (``repro figure
--distribute`` + ``repro work``) under fire, asserting the distributed
layer's core invariants:

1. **Exactly-once under re-lease** — a worker SIGKILLed mid-cell loses
   its lease; the cell is re-leased and executes again, but the figure
   and the merged journal contain exactly one result per spec.
2. **Partition tolerance** — a worker severed from the coordinator
   after taking a lease still journals its result locally; ``repro
   runs merge`` unions the shards and deduplicates the re-leased
   duplicate by spec fingerprint.
3. **Coordinator crash recovery** — SIGKILLing the coordinator mid
   journal-append loses nothing the worker shards hold; merge + resume
   reproduces the figure byte-for-byte.
4. **Split-brain refusal** — shards holding *divergent* results for
   the same fingerprint refuse to merge (exit 3, named fingerprints).
5. **Graceful local degradation** — a coordinator that never hears
   from any worker runs the whole sweep locally, byte-identical.

Adversity is scheduled at counted ordinals (:mod:`repro.chaos.plan`)
— the wall-clock waits are observation timeouts, not randomness.
:data:`DIST_SCENARIOS` is the table ``repro chaos`` runs
(:func:`repro.chaos.harness.run_scenarios`).
"""

from __future__ import annotations

import dataclasses
import os
import signal
import subprocess
import sys
import threading
import time
from typing import Any, Callable, Optional

from ..errors import ChaosError

_FIG = "fig07"
_FIG_KWARGS = {"workloads": ("bfs",), "datasets": ("test-small",)}
_STARTUP_TIMEOUT = 30.0
_EXIT_TIMEOUT = 60.0
_BATCH_TIMEOUT = 180.0

Log = Callable[[str], None]


def _quiet(_message: str) -> None:
    pass


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ChaosError(message)


def _env() -> dict[str, str]:
    import repro

    src_root = os.path.dirname(
        os.path.dirname(os.path.abspath(repro.__file__))
    )
    env = dict(os.environ)
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = (
        src_root + (os.pathsep + existing if existing else "")
    )
    return env


class DistWorker:
    """One ``repro work`` subprocess under test."""

    def __init__(
        self,
        workdir: str,
        connect: str,
        name: str,
        chaos: Optional[str] = None,
        idle_exit: float = 15.0,
        poll_interval: float = 0.1,
    ) -> None:
        self.workdir = workdir
        self.connect = connect
        self.name = name
        self.chaos = chaos
        self.idle_exit = idle_exit
        self.poll_interval = poll_interval
        self.journal = os.path.join(workdir, f"{name}.jsonl")
        self.stderr_path = os.path.join(workdir, f"{name}.stderr")
        self.proc: Optional[subprocess.Popen] = None

    def start(self) -> "DistWorker":
        argv = [
            sys.executable, "-m", "repro", "work",
            "--connect", self.connect,
            "--journal", self.journal,
            "--worker-id", self.name,
            "--idle-exit", str(self.idle_exit),
            "--poll-interval", str(self.poll_interval),
        ]
        if self.chaos:
            argv.extend(["--chaos", self.chaos])
        stderr = open(self.stderr_path, "ab")
        try:
            self.proc = subprocess.Popen(
                argv, stdout=subprocess.DEVNULL, stderr=stderr,
                env=_env(),
            )
        finally:
            stderr.close()
        return self

    def wait_exit(self, timeout: float = _EXIT_TIMEOUT) -> int:
        assert self.proc is not None
        try:
            return self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.kill()
            raise ChaosError(
                f"worker {self.name!r} did not exit within {timeout:.0f}s"
            )

    def kill(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=10)


# ----------------------------------------------------------------------
# In-process coordinator plumbing
# ----------------------------------------------------------------------


def _make_runner(journal_path: Optional[str]):
    from ..config import get_profile
    from ..experiments import ExperimentRunner, RunConfig
    from ..runstate.journal import RunJournal

    journal = (
        RunJournal(journal_path, lock=True) if journal_path else None
    )
    return ExperimentRunner(
        config=get_profile("scaled"), run_config=RunConfig(journal=journal)
    )


def _close_runner(runner) -> None:
    journal = runner.run_config.journal
    if journal is not None:
        journal.close()


def _run_figure(runner) -> str:
    from ..experiments.figures import FIGURES

    return FIGURES[_FIG](runner, **_FIG_KWARGS).render()


def _serial_reference(workdir: str) -> tuple[str, str]:
    """Run the sweep serially; returns (figure text, journal path)."""
    journal_path = os.path.join(workdir, "ref.jsonl")
    runner = _make_runner(journal_path)
    try:
        text = _run_figure(runner)
    finally:
        _close_runner(runner)
    return text, journal_path


class _FigureThread:
    """Runs the distributed figure on a thread so the scenario thread
    can orchestrate workers while ``execute_batch`` blocks."""

    def __init__(self, runner) -> None:
        self.runner = runner
        self.text: Optional[str] = None
        self.error: Optional[BaseException] = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        try:
            self.text = _run_figure(self.runner)
        except BaseException as error:
            self.error = error

    def start(self) -> "_FigureThread":
        self._thread.start()
        return self

    def join(self, timeout: float = _BATCH_TIMEOUT) -> str:
        self._thread.join(timeout=timeout)
        _require(
            not self._thread.is_alive(),
            f"distributed figure did not finish within {timeout:.0f}s",
        )
        if self.error is not None:
            raise self.error
        assert self.text is not None
        return self.text


def _wait_for_event(
    coordinator, name: str, timeout: float = _STARTUP_TIMEOUT,
    **fields: Any,
) -> dict[str, Any]:
    deadline = time.monotonic() + timeout  # repro: noqa REP001 — observation timeout
    while time.monotonic() < deadline:  # repro: noqa REP001 — observation timeout
        for event in coordinator.drain_events():
            if event.get("name") != name:
                continue
            if all(event.get(k) == v for k, v in fields.items()):
                return event
        time.sleep(0.05)
    raise ChaosError(
        f"no {name} event with {fields!r} within {timeout:.0f}s "
        f"(events: {[e.get('name') for e in coordinator.drain_events()]})"
    )


def _events_named(events: list[dict[str, Any]], name: str) -> list[dict]:
    return [event for event in events if event.get("name") == name]


def _require_clean_events(events: list[dict[str, Any]], what: str) -> None:
    from ..obs.events import validate_events

    problems = validate_events(events)
    _require(
        not problems,
        f"{what}: coordinator emitted schema-invalid events: "
        f"{problems[:3]}",
    )


def _require_merge_matches_reference(
    shards: list[str], ref_journal: str, what: str
) -> Any:
    """Merge the distributed shards and require byte-identity with the
    merged serial reference (order-independent: also merge reversed)."""
    from ..runstate.merge import merge_journals

    reference = merge_journals([ref_journal])
    merged = merge_journals(shards)
    _require(
        merged.text == reference.text,
        f"{what}: merged journal differs from the serial reference",
    )
    reversed_merge = merge_journals(list(reversed(shards)))
    _require(
        reversed_merge.text == merged.text,
        f"{what}: merge output depends on shard order",
    )
    return merged


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------


def scenario_dist_lease_expiry(
    workdir: str, log: Log = _quiet
) -> dict[str, Any]:
    """Worker SIGKILLed mid-cell → lease expires, cell re-leased and
    executed exactly once; figure and merged journal byte-identical."""
    from ..dist import DistConfig, DistCoordinator

    ref_text, ref_journal = _serial_reference(workdir)
    sock = os.path.join(workdir, "coord.sock")
    coord_journal = os.path.join(workdir, "coord.jsonl")
    runner = _make_runner(coord_journal)
    coordinator = DistCoordinator(
        runner,
        DistConfig(
            socket_path=sock, lease_seconds=1.0,
            local_grace_seconds=120.0, max_lease_attempts=5,
        ),
    ).start()
    runner.dist_executor = coordinator.execute_batch
    victim = DistWorker(
        workdir, sock, "wa", chaos="kill-worker:cell:1"
    ).start()
    survivor: Optional[DistWorker] = None
    try:
        figure = _FigureThread(runner).start()
        # Let the victim take (and die holding) the first lease before
        # the survivor joins — the kill ordinal counts the victim's own
        # dispatches, so it must win a lease for the scenario to bite.
        grant = _wait_for_event(
            coordinator, "dist.lease.grant", worker="wa"
        )
        survivor = DistWorker(workdir, sock, "wb").start()
        text = figure.join()
        coordinator.drain()
        rc_victim = victim.wait_exit()
        rc_survivor = survivor.wait_exit()
    finally:
        victim.kill()
        if survivor is not None:
            survivor.kill()
        coordinator.stop()
        _close_runner(runner)
    events = coordinator.drain_events()
    _require_clean_events(events, "dist-lease-expiry")
    _require(
        rc_victim == -signal.SIGKILL,
        f"victim worker exited {rc_victim}, expected SIGKILL",
    )
    _require(rc_survivor == 0, f"survivor exited {rc_survivor}")
    expired = _events_named(events, "dist.lease.expire")
    _require(bool(expired), "no dist.lease.expire event after the kill")
    spec = grant["spec"]
    regrant = [
        event for event in _events_named(events, "dist.lease.grant")
        if event.get("spec") == spec and event.get("attempt", 0) > 1
    ]
    _require(
        bool(regrant),
        f"killed cell {spec} was never re-leased "
        f"(grants: {_events_named(events, 'dist.lease.grant')})",
    )
    results = _events_named(events, "dist.result")
    specs = {event["spec"] for event in results}
    _require(
        len(results) == len(specs),
        "a spec produced more than one dist.result (exactly-once "
        "violated)",
    )
    _require(
        not _events_named(events, "dist.conflict"),
        "re-lease produced a dist.conflict",
    )
    _require(
        text == ref_text,
        "distributed figure differs from the serial reference",
    )
    _require_merge_matches_reference(
        [coord_journal, victim.journal, survivor.journal],
        ref_journal, "dist-lease-expiry",
    )
    log(f"lease-expiry: {spec} re-leased after SIGKILL, "
        f"{len(results)} unique results")
    return {"releases": len(regrant), "cells": len(specs)}


def scenario_dist_worker_partition(
    workdir: str, log: Log = _quiet
) -> dict[str, Any]:
    """Worker partitioned after taking a lease: it finishes the cell
    into its own shard but cannot stream it; the cell is re-leased, and
    merge deduplicates the two identical results by fingerprint."""
    from ..dist import DistConfig, DistCoordinator

    ref_text, ref_journal = _serial_reference(workdir)
    sock = os.path.join(workdir, "coord.sock")
    coord_journal = os.path.join(workdir, "coord.jsonl")
    runner = _make_runner(coord_journal)
    coordinator = DistCoordinator(
        runner,
        DistConfig(
            socket_path=sock, lease_seconds=1.0,
            local_grace_seconds=120.0, max_lease_attempts=5,
        ),
    ).start()
    runner.dist_executor = coordinator.execute_batch
    # Ops 1-3 are the first lease's connect/send/recv; from op 4 onward
    # the link is severed — renewals and the completion POST all fail,
    # so the partitioned worker idle-exits with its shard intact.
    partitioned = DistWorker(
        workdir, sock, "wa", chaos="sever:net.partition:4",
        idle_exit=2.0,
    ).start()
    survivor: Optional[DistWorker] = None
    try:
        figure = _FigureThread(runner).start()
        grant = _wait_for_event(
            coordinator, "dist.lease.grant", worker="wa"
        )
        survivor = DistWorker(workdir, sock, "wb").start()
        text = figure.join()
        coordinator.drain()
        rc_partitioned = partitioned.wait_exit()
        rc_survivor = survivor.wait_exit()
    finally:
        partitioned.kill()
        if survivor is not None:
            survivor.kill()
        coordinator.stop()
        _close_runner(runner)
    events = coordinator.drain_events()
    _require_clean_events(events, "dist-worker-partition")
    _require(
        rc_partitioned == 0,
        f"partitioned worker exited {rc_partitioned}, expected a clean "
        "idle-exit",
    )
    _require(rc_survivor == 0, f"survivor exited {rc_survivor}")
    _require(
        bool(_events_named(events, "dist.lease.expire")),
        "partitioned worker's lease never expired",
    )
    from ..runstate.journal import STATUS_DONE, scan_records

    stranded = [
        record for record in scan_records(partitioned.journal)
        if record.status == STATUS_DONE and record.spec == grant["spec"]
    ]
    _require(
        bool(stranded),
        "partitioned worker journaled no done record for its leased "
        f"cell {grant['spec']} (its shard should carry the result)",
    )
    merged = _require_merge_matches_reference(
        [coord_journal, partitioned.journal, survivor.journal],
        ref_journal, "dist-worker-partition",
    )
    _require(
        merged.duplicates >= 1,
        "merge saw no duplicate despite the re-executed cell",
    )
    _require(
        text == ref_text,
        "distributed figure differs from the serial reference",
    )
    log(f"worker-partition: {grant['spec']} stranded in shard, "
        f"{merged.duplicates} duplicate(s) merged away")
    return {"duplicates": merged.duplicates, "stranded_spec": grant["spec"]}


def scenario_dist_coordinator_kill(
    workdir: str, log: Log = _quiet
) -> dict[str, Any]:
    """Coordinator SIGKILLed mid journal-append: the worker shards hold
    the results; merge + ``--resume`` reproduces the figure bytes."""
    ref_text, ref_journal = _serial_reference(workdir)
    sock = os.path.join(workdir, "coord.sock")
    coord_journal = os.path.join(workdir, "coord.jsonl")
    out_ref = os.path.join(workdir, "out_ref")
    out_resume = os.path.join(workdir, "out_resume")
    env = _env()
    base = [
        sys.executable, "-m", "repro", "figure", _FIG,
        "--workloads", ",".join(_FIG_KWARGS["workloads"]),
        "--datasets", ",".join(_FIG_KWARGS["datasets"]),
    ]
    ref_cli = subprocess.run(
        base + ["--out", out_ref], env=env, capture_output=True,
        text=True, timeout=_BATCH_TIMEOUT,
    )
    _require(
        ref_cli.returncode == 0,
        f"serial reference figure failed: {ref_cli.stderr[-500:]}",
    )
    # Workers first: they poll until the coordinator's socket appears.
    workers = [
        DistWorker(workdir, sock, name, idle_exit=5.0)
        for name in ("wa", "wb")
    ]
    for worker in workers:
        worker.start()
    stderr_path = os.path.join(workdir, "coord.stderr")
    stderr = open(stderr_path, "ab")
    try:
        # The batch's deterministic journal merge happens after every
        # result is in; tearing its 3rd append kills the coordinator
        # with exactly one spec durable locally — the rest live only in
        # the worker shards.
        coordinator = subprocess.Popen(
            base + [
                "--journal", coord_journal,
                "--distribute", sock,
                "--local-grace", "120",
                "--chaos", "kill-server:append:3",
            ],
            stdout=subprocess.DEVNULL, stderr=stderr, env=env,
        )
    finally:
        stderr.close()
    try:
        rc_coord = coordinator.wait(timeout=_BATCH_TIMEOUT)
    except subprocess.TimeoutExpired:
        coordinator.kill()
        raise ChaosError("chaos coordinator did not exit in time")
    rcs = [worker.wait_exit() for worker in workers]
    _require(
        rc_coord == -signal.SIGKILL,
        f"coordinator exited {rc_coord}, expected SIGKILL at append 3",
    )
    _require(
        all(rc == 0 for rc in rcs),
        f"workers exited {rcs} after the coordinator died",
    )
    merged_path = os.path.join(workdir, "merged.jsonl")
    merge = subprocess.run(
        [
            sys.executable, "-m", "repro", "runs", "merge",
            coord_journal, workers[0].journal, workers[1].journal,
            "--out", merged_path,
        ],
        env=env, capture_output=True, text=True, timeout=60,
    )
    _require(
        merge.returncode == 0,
        f"runs merge failed ({merge.returncode}): {merge.stderr[-500:]}",
    )
    _require_merge_matches_reference(
        [coord_journal, workers[0].journal, workers[1].journal],
        ref_journal, "dist-coordinator-kill",
    )
    resume = subprocess.run(
        base + [
            "--journal", merged_path, "--resume", "--out", out_resume,
        ],
        env=env, capture_output=True, text=True, timeout=_BATCH_TIMEOUT,
    )
    _require(
        resume.returncode == 0,
        f"resumed figure failed: {resume.stderr[-500:]}",
    )
    name = f"{_FIG}.txt"
    with open(os.path.join(out_ref, name), "rb") as handle:
        ref_bytes = handle.read()
    with open(os.path.join(out_resume, name), "rb") as handle:
        resume_bytes = handle.read()
    _require(
        ref_bytes == resume_bytes,
        "merge+resume figure differs from the serial reference",
    )
    log("coordinator-kill: merge recovered the torn journal; resumed "
        "figure byte-identical")
    return {"coordinator_exit": rc_coord, "merged": merged_path}


def scenario_dist_split_brain(
    workdir: str, log: Log = _quiet
) -> dict[str, Any]:
    """Two shards with divergent results for one fingerprint: merge
    must refuse (exit 3), name the fingerprint, and write nothing."""
    from ..runstate.journal import (
        STATUS_DONE,
        render_line,
        scan_records,
    )

    _text, ref_journal = _serial_reference(workdir)
    records = scan_records(ref_journal)
    done = [r for r in records if r.status == STATUS_DONE]
    _require(bool(done), "serial reference journal has no done records")
    victim = done[0]
    forged = dataclasses.replace(
        victim, kernel_cycles=(victim.kernel_cycles or 0) + 1
    )
    shard_b = os.path.join(workdir, "divergent.jsonl")
    with open(shard_b, "w", encoding="utf-8") as handle:
        for record in records:
            if record.seq == victim.seq:
                record = forged
            handle.write(render_line(record) + "\n")
    merged_path = os.path.join(workdir, "merged.jsonl")
    merge = subprocess.run(
        [
            sys.executable, "-m", "repro", "runs", "merge",
            ref_journal, shard_b, "--out", merged_path,
        ],
        env=_env(), capture_output=True, text=True, timeout=60,
    )
    _require(
        merge.returncode == 3,
        f"split-brain merge exited {merge.returncode}, expected 3 "
        f"(stderr: {merge.stderr[-300:]})",
    )
    _require(
        victim.spec in merge.stderr,
        "conflict report does not name the divergent fingerprint",
    )
    _require(
        not os.path.exists(merged_path),
        "refused merge still wrote an output file",
    )
    log(f"split-brain: merge refused, fingerprint {victim.spec} named")
    return {"conflicting_spec": victim.spec}


def scenario_dist_local_degrade(
    workdir: str, log: Log = _quiet
) -> dict[str, Any]:
    """No worker ever connects: after the grace period the coordinator
    degrades the batch to local execution — one-way — and the figure is
    byte-identical to the serial run."""
    from ..dist import DistConfig, DistCoordinator

    ref_text, ref_journal = _serial_reference(workdir)
    sock = os.path.join(workdir, "coord.sock")
    coord_journal = os.path.join(workdir, "coord.jsonl")
    runner = _make_runner(coord_journal)
    coordinator = DistCoordinator(
        runner,
        DistConfig(
            socket_path=sock, lease_seconds=1.0,
            local_grace_seconds=0.3,
        ),
    ).start()
    runner.dist_executor = coordinator.execute_batch
    try:
        text = _run_figure(runner)
    finally:
        coordinator.drain()
        coordinator.stop()
        _close_runner(runner)
    events = coordinator.drain_events()
    _require_clean_events(events, "dist-local-degrade")
    modes = _events_named(events, "dist.mode")
    _require(
        any(
            event.get("to_mode") == "local"
            and event.get("reason") == "no-worker-contact"
            for event in modes
        ),
        f"no remote→local dist.mode event (events: {modes})",
    )
    _require(len(modes) == 1, "mode flapped; the switch must be one-way")
    locals_ = _events_named(events, "dist.local")
    results = _events_named(events, "dist.result")
    _require(
        len(results) == len({e['spec'] for e in results}),
        "local degradation executed a spec twice",
    )
    _require(
        len(locals_) == len(results),
        f"{len(locals_)} local claims vs {len(results)} results",
    )
    _require(
        text == ref_text,
        "degraded figure differs from the serial reference",
    )
    _require_merge_matches_reference(
        [coord_journal], ref_journal, "dist-local-degrade"
    )
    log(f"local-degrade: {len(results)} cell(s) ran locally after "
        "grace expiry")
    return {"cells": len(results)}


DIST_SCENARIOS: dict[str, Callable[..., dict[str, Any]]] = {
    "dist-lease-expiry": scenario_dist_lease_expiry,
    "dist-worker-partition": scenario_dist_worker_partition,
    "dist-coordinator-kill": scenario_dist_coordinator_kill,
    "dist-split-brain": scenario_dist_split_brain,
    "dist-local-degrade": scenario_dist_local_degrade,
}
