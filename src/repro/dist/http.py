"""Minimal HTTP/1.1 transport for the sweep coordinator (stdlib only).

Both ends of the ``repro.dist`` wire live here:

- the server side — :func:`_read_request` parses one request off an
  asyncio stream (bounded header and body, ``None`` on anything it
  cannot trust) and :func:`_render_response` renders a
  :class:`Response`;
- the client side — :class:`SweepClient`, a blocking client over a
  UNIX-domain socket or loopback TCP, with an opt-in bounded retry.

Connections are one-request (``Connection: close``): a worker holds
one socket per exchange and the coordinator never multiplexes.
"""

from __future__ import annotations

import asyncio
import json
import random
import socket
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from ..errors import ServiceError
from ..runstate.serialize import canonical_json

_MAX_HEADER_BYTES = 16384
_MAX_BODY_BYTES = 1 << 20

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


# ----------------------------------------------------------------------
# Server side
# ----------------------------------------------------------------------


@dataclass
class Response:
    """Transport-agnostic outcome of one request."""

    status: int
    body: dict[str, Any] = field(default_factory=dict)
    raw: Optional[str] = None
    """Pre-rendered body (canonical JSON) — bytes fixed by the caller;
    wins over ``body`` when set."""
    retry_after: Optional[float] = None

    def render(self) -> bytes:
        if self.raw is not None:
            return self.raw.encode("utf-8")
        return (canonical_json(self.body) + "\n").encode("utf-8")


def _render_response(response: Response) -> bytes:
    body = response.render()
    reason = _REASONS.get(response.status, "Unknown")
    headers = [
        f"HTTP/1.1 {response.status} {reason}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        "Connection: close",
    ]
    if response.retry_after is not None:
        headers.append(f"Retry-After: {max(1, int(response.retry_after))}")
    return ("\r\n".join(headers) + "\r\n\r\n").encode("ascii") + body


async def _read_request(
    reader: asyncio.StreamReader,
) -> Optional[tuple[str, str, bytes]]:
    """Parse one request → (method, path, body); None on EOF/garbage."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except (asyncio.IncompleteReadError, asyncio.LimitOverrunError):
        return None
    if len(head) > _MAX_HEADER_BYTES:
        return None
    try:
        text = head.decode("latin-1")
        request_line, *header_lines = text.split("\r\n")
        method, path, _version = request_line.split(" ", 2)
    except ValueError:
        return None
    content_length = 0
    for line in header_lines:
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            try:
                content_length = int(value.strip())
            except ValueError:
                return None
    if content_length < 0 or content_length > _MAX_BODY_BYTES:
        return None
    body = b""
    if content_length:
        try:
            body = await reader.readexactly(content_length)
        except asyncio.IncompleteReadError:
            return None
    return method.upper(), path, body


# ----------------------------------------------------------------------
# Client side
# ----------------------------------------------------------------------

RETRYABLE_STATUSES = (429, 503)
"""Statuses :meth:`SweepClient.request_with_retry` treats as transient
by default: backpressure (429 + Retry-After) and temporary
unavailability (503)."""


@dataclass
class ClientResponse:
    """Status + parsed body + the exact bytes received (byte-identity
    assertions compare ``raw``, never a re-serialization)."""

    status: int
    body: Any
    raw: bytes
    retry_after: Optional[float] = None

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300


class SweepClient:
    """Talks to one sweep coordinator over UDS or TCP.

    Args:
        socket_path: UNIX socket path (wins when set).
        host, port: TCP fallback.
        timeout: per-request socket timeout.
    """

    def __init__(
        self,
        socket_path: Optional[str] = None,
        host: str = "127.0.0.1",
        port: int = 7341,
        timeout: float = 120.0,
    ) -> None:
        if socket_path is None and not host:
            raise ServiceError("SweepClient needs a socket_path or host")
        self.socket_path = socket_path
        self.host = host
        self.port = port
        self.timeout = timeout

    # ------------------------------------------------------------------

    def _connect(self) -> socket.socket:
        if self.socket_path is not None:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(self.timeout)
            sock.connect(self.socket_path)
            return sock
        sock = socket.create_connection(
            (self.host, self.port), timeout=self.timeout
        )
        return sock

    # The three socket operations are overridable seams: the chaos
    # client (repro.dist.netchaos.ChaosClient) wraps them to drop,
    # delay or sever on a counted schedule.

    def _send(self, sock: socket.socket, data: bytes) -> None:
        sock.sendall(data)

    def _recv(self, sock: socket.socket, limit: int) -> bytes:
        return sock.recv(limit)

    def request(
        self, method: str, path: str, payload: Optional[dict] = None
    ) -> ClientResponse:
        """One HTTP exchange; raises OSError on transport failure."""
        body = b""
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: repro\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n"
        ).encode("ascii")
        sock = self._connect()
        try:
            self._send(sock, head + body)
            # Read headers, then exactly Content-Length body bytes.
            # Never read to EOF: worker processes forked while a
            # connection is open inherit its fd, so the server closing
            # its end does not guarantee an EOF at ours.
            buffered = b""
            while b"\r\n\r\n" not in buffered:
                chunk = self._recv(sock, 65536)
                if not chunk:
                    break
                buffered += chunk
            header_end = buffered.find(b"\r\n\r\n")
            if header_end < 0:
                raise ServiceError("malformed response from server")
            head_text = buffered[:header_end].decode("latin-1")
            response_body = buffered[header_end + 4:]
            content_length = None
            for line in head_text.split("\r\n")[1:]:
                name, _, value = line.partition(":")
                if name.strip().lower() == "content-length":
                    try:
                        content_length = int(value.strip())
                    except ValueError:
                        pass
            if content_length is not None:
                while len(response_body) < content_length:
                    chunk = self._recv(sock, 65536)
                    if not chunk:
                        break
                    response_body += chunk
                response_body = response_body[:content_length]
        finally:
            sock.close()
        status_line, *header_lines = head_text.split("\r\n")
        try:
            status = int(status_line.split(" ", 2)[1])
        except (IndexError, ValueError) as exc:
            raise ServiceError(
                f"malformed status line {status_line!r}"
            ) from exc
        retry_after = None
        for line in header_lines:
            name, _, value = line.partition(":")
            if name.strip().lower() == "retry-after":
                try:
                    retry_after = float(value.strip())
                except ValueError:
                    pass
        try:
            parsed = json.loads(response_body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            parsed = None
        return ClientResponse(
            status=status, body=parsed, raw=response_body,
            retry_after=retry_after,
        )

    def request_with_retry(
        self,
        method: str,
        path: str,
        payload: Optional[dict] = None,
        *,
        max_attempts: int = 4,
        backoff_base: float = 0.1,
        backoff_max: float = 2.0,
        retry_statuses: tuple[int, ...] = RETRYABLE_STATUSES,
        seed: int = 0,
        sleep: Callable[[float], None] = time.sleep,
    ) -> ClientResponse:
        """Opt-in bounded retry around :meth:`request`.

        Transport failures (``OSError`` — connection refused, reset,
        timed out) and the transient statuses in ``retry_statuses``
        retry with capped exponential backoff (``base, 2x, 4x, ...``
        capped at ``backoff_max``) plus seeded jitter — deterministic
        for a given ``seed``, decorrelated across workers that pass
        distinct seeds.  A 429/503 carrying ``Retry-After`` is honored:
        the wait is at least the server's hint (still capped).  After
        ``max_attempts`` total attempts the last response is returned
        as-is, or the last ``OSError`` re-raised — the caller keeps the
        terminal outcome either way, never a synthetic one.

        The plain :meth:`request` stays single-shot: retry is only
        correct for idempotent exchanges, which every ``repro.dist``
        call is (lease polls, renewals, integrity-hashed completions
        deduplicated by spec fingerprint).
        """
        if max_attempts < 1:
            raise ServiceError(
                f"max_attempts must be >= 1, got {max_attempts}"
            )
        rng = random.Random(seed)
        last_error: Optional[OSError] = None
        response: Optional[ClientResponse] = None
        for attempt in range(1, max_attempts + 1):
            try:
                response = self.request(method, path, payload)
                last_error = None
            except OSError as error:
                last_error = error
                response = None
            else:
                if response.status not in retry_statuses:
                    return response
            if attempt == max_attempts:
                break
            wait = min(backoff_max, backoff_base * (2 ** (attempt - 1)))
            if response is not None and response.retry_after is not None:
                wait = min(backoff_max, max(wait, response.retry_after))
            # Full jitter on top of the deterministic floor: two
            # workers hammering one recovering coordinator decorrelate.
            wait += rng.uniform(0, backoff_base)
            sleep(wait)
        if response is not None:
            return response
        assert last_error is not None
        raise last_error

    def healthz(self) -> bool:
        try:
            return self.request("GET", "/v1/healthz").ok
        except (OSError, ServiceError):
            return False
