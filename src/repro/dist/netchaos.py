"""Deterministic network faults for the distributed sweep layer.

The chaos plan grammar (:mod:`repro.chaos.plan`) gains four network
points — ``net.connect``, ``net.send``, ``net.recv``,
``net.partition`` — and this module fires them from inside the client:
:class:`ChaosClient` wraps :class:`~repro.dist.http.SweepClient`'s
three socket seams and consults a :class:`NetChaos` schedule before
each real operation.

Determinism: every decision is a counted ordinal, never a random draw.
``drop``/``delay`` count per point (the 3rd ``net.send`` is the 3rd
``net.send`` whatever else happened); ``sever`` counts across all
points and is a threshold — once the partition starts, every later
operation fails, and it never heals.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Optional

from ..chaos.plan import (
    ChaosPlan,
    NET_POINTS,
    POINT_NET_CONNECT,
    POINT_NET_RECV,
    POINT_NET_SEND,
)
from .http import SweepClient


class NetFaultError(ConnectionError):
    """An injected network fault (dropped or severed operation).

    Subclasses ``ConnectionError`` so the bounded retry loop and the
    worker's partition handling treat injected faults exactly like the
    real transport failures they model.
    """


Listener = Callable[..., None]


class NetChaos:
    """Counted network-fault schedule shared by one client's sockets.

    Args:
        plan: the parsed chaos plan (only ``drop``/``delay``/``sever``
            actions are consulted; other actions are ignored).
        delay_seconds: stall applied when a ``delay`` ordinal matches.
        listener: optional ``listener(name, point=..., ordinal=...)``
            called once per fired fault (``net.drop`` / ``net.delay`` /
            ``net.sever`` events).
    """

    def __init__(
        self,
        plan: ChaosPlan,
        delay_seconds: float = 0.5,
        listener: Optional[Listener] = None,
    ) -> None:
        self.plan = plan
        self.delay_seconds = delay_seconds
        self.listener = listener
        self.point_counts: dict[str, int] = {
            point: 0 for point in NET_POINTS
        }
        self.ops = 0
        self.fired: list[tuple[str, str, int]] = []

    def _fire(self, action: str, point: str, ordinal: int) -> None:
        self.fired.append((action, point, ordinal))
        listener = self.listener
        if listener is not None:
            listener(f"net.{action}", point=point, ordinal=ordinal)

    def check(self, point: str) -> None:
        """Account one operation at ``point``; raise/stall per plan."""
        self.ops += 1
        self.point_counts[point] = self.point_counts.get(point, 0) + 1
        if self.plan.severed_at(self.ops):
            self._fire("sever", point, self.ops)
            raise NetFaultError(
                f"injected partition at op {self.ops} ({point})"
            )
        ordinal = self.point_counts[point]
        if self.plan.drop_at(point, ordinal):
            self._fire("drop", point, ordinal)
            raise NetFaultError(
                f"injected drop at {point} #{ordinal}"
            )
        if self.plan.delay_at(point, ordinal):
            self._fire("delay", point, ordinal)
            time.sleep(self.delay_seconds)


class ChaosClient(SweepClient):
    """A :class:`SweepClient` whose socket operations pass through a
    :class:`NetChaos` schedule — the deterministic stand-in for a flaky
    or partitioned network."""

    def __init__(self, *args: Any, chaos: NetChaos, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.chaos = chaos

    def _connect(self):
        self.chaos.check(POINT_NET_CONNECT)
        return super()._connect()

    def _send(self, sock, data: bytes) -> None:
        self.chaos.check(POINT_NET_SEND)
        super()._send(sock, data)

    def _recv(self, sock, limit: int) -> bytes:
        self.chaos.check(POINT_NET_RECV)
        return super()._recv(sock, limit)
