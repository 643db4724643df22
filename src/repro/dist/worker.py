"""The remote worker agent behind ``repro work``.

A worker connects to a coordinator (``--connect``), pulls leased cells,
simulates them through the same ``_execute_cell`` path every other
execution mode uses, and streams results back with integrity hashes.
Its durability story is deliberately boring:

- every leased cell is journaled locally (``begin`` before execution,
  the result after) in the worker's own journal **shard** — so a
  partition that eats the completion stream loses nothing; ``repro runs
  merge`` unions the shards afterwards;
- the completion POST uses the client's bounded retry loop; if the
  coordinator stays unreachable the worker just moves on — the shard
  carries the result, and re-leasing plus fingerprint dedupe keep the
  merged journal exactly-once;
- before running a cell the worker rebuilds a runner from the shipped
  profile name, PR iteration cap and run config (the coordinator
  runner's :meth:`~repro.experiments.harness.ExperimentRunner
  .worker_run_config`, via :meth:`~repro.experiments.runconfig
  .RunConfig.from_wire` — tracing, MemSan, TLB engine, faults, retries,
  budgets and watchdogs all carry over) and **re-derives the spec
  fingerprint**; a mismatch is reported (the coordinator runs the cell
  locally) rather than executed — a worker must never journal a result
  under a fingerprint its own configuration would not produce.

Deterministic adversity: ``--chaos`` accepts the standard plan grammar.
``kill-worker:cell:N`` makes the worker SIGKILL itself mid-cell on its
N-th dispatch (after the ``begin`` record, like a real crash);
``drop``/``delay``/``sever`` actions route the worker's socket
operations through :class:`~repro.dist.netchaos.NetChaos` (a ``delay``
stalls for :data:`NET_DELAY_SECONDS`).
"""

from __future__ import annotations

import os
import signal
import threading
import time
import zlib
from dataclasses import dataclass, field
from typing import Any, Optional

from ..chaos.plan import ChaosPlan
from ..errors import ReproError
from ..runstate.journal import RunJournal
from ..runstate.serialize import (
    canonical_json,
    encode_result,
    integrity_hash,
)
from .config import parse_connect
from .http import SweepClient
from .netchaos import ChaosClient, NetChaos

REQUEST_ATTEMPTS = 4
"""Bounded attempts per coordinator request (lease poll, completion)."""

NET_DELAY_SECONDS = 0.5
"""Stall applied by a ``delay:net.*`` chaos action."""


@dataclass
class WorkerConfig:
    """Settings for one ``repro work`` agent."""

    connect: str
    journal_path: str
    worker_id: str = ""
    poll_interval: float = 0.2
    idle_exit_seconds: float = 30.0
    timeout: float = 120.0
    plan: Optional[ChaosPlan] = None
    log: Any = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if not self.worker_id:
            self.worker_id = f"w{os.getpid()}"


def _jitter_seed(worker_id: str) -> int:
    """Deterministic per-worker backoff-jitter seed (crc32, not
    ``hash()`` — string hashing is randomized per process)."""
    return zlib.crc32(worker_id.encode("utf-8")) & 0xFFFF


def make_client(config: WorkerConfig) -> SweepClient:
    """Build the worker's client, chaos-wrapped when a plan is armed."""
    socket_path, host, port = parse_connect(config.connect)
    if config.plan is not None:
        return ChaosClient(
            socket_path=socket_path, host=host or "127.0.0.1",
            port=port or 7351, timeout=config.timeout,
            chaos=NetChaos(config.plan, delay_seconds=NET_DELAY_SECONDS),
        )
    return SweepClient(
        socket_path=socket_path, host=host or "127.0.0.1",
        port=port or 7351, timeout=config.timeout,
    )


def _build_runner(settings: dict[str, Any]):
    from ..config import get_profile
    from ..experiments.harness import ExperimentRunner
    from ..experiments.runconfig import RunConfig

    return ExperimentRunner(
        config=get_profile(settings["profile"]),
        run_config=RunConfig.from_wire(settings["run"]),
        pagerank_iterations=settings["pagerank_iterations"],
    )


class _Heartbeat:
    """Renews one lease on a daemon thread until stopped.

    A renewal is a single-shot request — a missed one *is* the signal
    the lease protocol exists to detect, so there is nothing to retry.
    """

    def __init__(
        self, client: SweepClient, worker_id: str, lease_id: str,
        interval: float,
    ) -> None:
        self._client = client
        self._worker_id = worker_id
        self._lease_id = lease_id
        self._interval = interval
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def start(self) -> "_Heartbeat":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            try:
                self._client.request(
                    "POST", "/v1/dist/renew",
                    {
                        "lease_id": self._lease_id,
                        "worker": self._worker_id,
                    },
                )
            except (OSError, ReproError):
                # Unreachable coordinator: the lease will expire and the
                # cell will be re-leased; our local journal still wins
                # exactly-once through merge dedupe.
                pass


def work_loop(config: WorkerConfig) -> int:
    """Pull-execute-report until the coordinator says done (or goes
    away for ``idle_exit_seconds``).  Returns a process exit code."""
    log = config.log or (lambda _message: None)
    client = make_client(config)
    journal = RunJournal(config.journal_path, lock=True)
    runners: dict[str, Any] = {}
    dispatch = 0
    last_contact = time.monotonic()  # repro: noqa REP001 — liveness horizon
    try:
        while True:
            try:
                response = client.request_with_retry(
                    "POST", "/v1/dist/lease",
                    {"worker": config.worker_id},
                    max_attempts=REQUEST_ATTEMPTS,
                    backoff_base=config.poll_interval / 2,
                    seed=_jitter_seed(config.worker_id),
                )
            except OSError:
                now = time.monotonic()  # repro: noqa REP001 — liveness horizon
                if now - last_contact > config.idle_exit_seconds:
                    log("coordinator unreachable; exiting")
                    return 0
                time.sleep(config.poll_interval)
                continue
            last_contact = time.monotonic()  # repro: noqa REP001 — liveness horizon
            body = response.body if isinstance(response.body, dict) else {}
            if not response.ok:
                time.sleep(config.poll_interval)
                continue
            if body.get("done"):
                log("coordinator drained; exiting")
                return 0
            task = body.get("task")
            if not task:
                time.sleep(
                    float(body.get("retry_after") or config.poll_interval)
                )
                continue
            dispatch += 1
            _run_task(config, client, journal, runners, task, dispatch, log)
    finally:
        journal.close()


def _run_task(
    config: WorkerConfig,
    client: SweepClient,
    journal: RunJournal,
    runners: dict[str, Any],
    task: dict[str, Any],
    dispatch: int,
    log: Any,
) -> None:
    from ..experiments.parse import parse_policy, parse_scenario

    settings = task["settings"]
    key = canonical_json(settings)
    runner = runners.get(key)
    if runner is None:
        runner = runners[key] = _build_runner(settings)
    policy = parse_policy(task["policy"])
    scenario = parse_scenario(task["scenario"])
    spec = runner.cell_spec(
        task["workload"], task["dataset"], policy, scenario
    )
    if spec != task["spec"]:
        log(f"spec mismatch for {task['workload']}/{task['dataset']}: "
            f"ours {spec} != leased {task['spec']}; refusing")
        _post_safely(client, config, {
            "worker": config.worker_id,
            "lease_id": task.get("lease_id"),
            "spec": task["spec"],
            "mismatch": True,
        })
        return
    coords = dict(task.get("cell") or {})
    journal.begin(spec, coords)
    if config.plan is not None and config.plan.kill_worker_at(dispatch):
        # Deterministic chaos: die mid-cell after the begin record,
        # exactly where a real crash would leave the shard.
        os.kill(os.getpid(), signal.SIGKILL)
    interval = max(0.05, float(task.get("lease_seconds", 5.0)) / 3.0)
    heartbeat = _Heartbeat(
        client, config.worker_id, str(task.get("lease_id")), interval
    ).start()
    try:
        outcome = runner._execute_cell(
            task["workload"], task["dataset"], policy, scenario
        )
    finally:
        heartbeat.stop()
    journal.record_result(spec, coords, outcome)
    payload = encode_result(outcome)
    _post_safely(client, config, {
        "worker": config.worker_id,
        "lease_id": task.get("lease_id"),
        "spec": spec,
        "payload": payload,
        "integrity": integrity_hash(payload),
    })
    log(f"completed {spec} ({coords.get('workload')}/"
        f"{coords.get('dataset')})")


def _post_safely(
    client: SweepClient, config: WorkerConfig, body: dict[str, Any]
) -> None:
    """POST a completion with bounded retry; a coordinator that stays
    unreachable is not an error — the journal shard carries the result
    and ``repro runs merge`` recovers it."""
    try:
        client.request_with_retry(
            "POST", "/v1/dist/complete", body,
            max_attempts=REQUEST_ATTEMPTS,
            backoff_base=config.poll_interval / 2,
            seed=_jitter_seed(config.worker_id),
        )
    except OSError:
        pass
