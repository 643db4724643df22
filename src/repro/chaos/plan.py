"""Deterministic chaos plans: process-level adversity on a schedule.

A chaos plan composes the simulator's injected fault sites
(:mod:`repro.faults`) with the adversity they cannot express — killing
whole processes and faulting the network — while staying exactly as
deterministic: every action fires at a counted ordinal, never at
random.

Grammar (comma list): ``action:point:ordinal``

- ``kill-worker:cell:N`` — the worker executing the N-th task
  *dispatch* SIGKILLs itself mid-cell (re-leases count as dispatches,
  so a plan can also kill the retry).
- ``kill-server:append:N`` — the process owning the journal tears the
  N-th journal append (writes half the record, fsyncs, then SIGKILLs
  itself) — a crash mid-``journal.write``, one level below the
  ``journal.write`` fault site because the *process* dies too.
- ``drop:net.connect:N`` / ``drop:net.send:N`` / ``drop:net.recv:N`` —
  the N-th network operation *at that point* fails with a connection
  error (one lost packet/refused dial, exactly once).
- ``delay:net.send:N`` / ``delay:net.recv:N`` — the N-th operation at
  that point stalls (for the consuming component's delay, e.g.
  ``repro work``'s ``NET_DELAY_SECONDS``), long enough to expire a
  lease without losing the result.
- ``sever:net.partition:N`` — from the N-th network operation onward
  (counted across *all* points) every operation fails: a full network
  partition that never heals, the distributed layer's worst case.

Ordinals are 1-based.  Kill and ``drop``/``delay`` actions fire exactly
once (their ordinal must match); ``sever`` is a threshold (``>=``).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigError

ACTION_KILL_WORKER = "kill-worker"
ACTION_KILL_SERVER = "kill-server"
ACTION_DROP = "drop"
ACTION_DELAY = "delay"
ACTION_SEVER = "sever"

POINT_CELL = "cell"
POINT_APPEND = "append"
POINT_NET_CONNECT = "net.connect"
POINT_NET_SEND = "net.send"
POINT_NET_RECV = "net.recv"
POINT_NET_PARTITION = "net.partition"

NET_POINTS = (POINT_NET_CONNECT, POINT_NET_SEND, POINT_NET_RECV)
"""The per-operation network fault points (``net.partition`` is the
whole-link threshold, not an operation point)."""

_VALID = {
    ACTION_KILL_WORKER: (POINT_CELL,),
    ACTION_KILL_SERVER: (POINT_APPEND,),
    ACTION_DROP: NET_POINTS,
    ACTION_DELAY: (POINT_NET_SEND, POINT_NET_RECV),
    ACTION_SEVER: (POINT_NET_PARTITION,),
}


@dataclass(frozen=True)
class ChaosAction:
    action: str
    point: str
    ordinal: int


@dataclass(frozen=True)
class ChaosPlan:
    """A parsed, immutable chaos schedule."""

    actions: tuple[ChaosAction, ...] = ()

    @classmethod
    def parse(cls, text: str) -> "ChaosPlan":
        actions = []
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            pieces = part.split(":")
            if len(pieces) != 3:
                raise ConfigError(
                    f"bad chaos action {part!r}: expected "
                    "action:point:ordinal"
                )
            action, point, raw_ordinal = pieces
            if action not in _VALID:
                raise ConfigError(
                    f"unknown chaos action {action!r}; known: "
                    + ", ".join(sorted(_VALID))
                )
            if point not in _VALID[action]:
                raise ConfigError(
                    f"chaos action {action!r} does not support point "
                    f"{point!r}; supported: "
                    + ", ".join(_VALID[action])
                )
            try:
                ordinal = int(raw_ordinal)
            except ValueError as exc:
                raise ConfigError(
                    f"bad chaos ordinal {raw_ordinal!r} in {part!r}"
                ) from exc
            if ordinal < 1:
                raise ConfigError(
                    f"chaos ordinals are 1-based, got {ordinal}"
                )
            actions.append(ChaosAction(action, point, ordinal))
        if not actions:
            raise ConfigError("chaos plan is empty")
        return cls(actions=tuple(actions))

    # ------------------------------------------------------------------

    def kill_worker_at(self, dispatch_ordinal: int) -> bool:
        """True when the worker serving this dispatch must die mid-cell."""
        return any(
            a.action == ACTION_KILL_WORKER and a.ordinal == dispatch_ordinal
            for a in self.actions
        )

    def kill_server_at_append(self, append_ordinal: int) -> bool:
        """True when this journal append must tear and kill the server."""
        return any(
            a.action == ACTION_KILL_SERVER and a.ordinal == append_ordinal
            for a in self.actions
        )

    # -- network fault sites (consumed by repro.dist.netchaos) ---------

    def drop_at(self, point: str, point_ordinal: int) -> bool:
        """True when the ``point_ordinal``-th operation at ``point``
        (``net.connect`` / ``net.send`` / ``net.recv``) must fail."""
        return any(
            a.action == ACTION_DROP
            and a.point == point
            and a.ordinal == point_ordinal
            for a in self.actions
        )

    def delay_at(self, point: str, point_ordinal: int) -> bool:
        """True when the ``point_ordinal``-th operation at ``point``
        must stall before proceeding."""
        return any(
            a.action == ACTION_DELAY
            and a.point == point
            and a.ordinal == point_ordinal
            for a in self.actions
        )

    def severed_at(self, op_ordinal: int) -> bool:
        """True when the link is partitioned at the ``op_ordinal``-th
        network operation (counted across all points; threshold —
        partitions never heal)."""
        return any(
            a.action == ACTION_SEVER and op_ordinal >= a.ordinal
            for a in self.actions
        )
