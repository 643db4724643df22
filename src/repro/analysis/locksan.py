"""LockSan: a runtime lockset sanitizer (the dynamic twin of REP009).

Eraser for lock-holding classes: :class:`TrackedLock` maintains a
per-thread set of held lock names, and :func:`watch` instruments an
object so every read/write of its private attributes records ``(lockset
held, thread)``.  :meth:`LockSanitizer.report` then applies the Eraser
rule — an attribute written after construction, touched by two or more
threads, whose access locksets have an empty intersection while at
least one access *did* hold a lock, is a candidate data race.  This is
exactly the REP009 static rule, checked against what actually ran, so
a static finding can be confirmed dynamically before it is fixed.

Enablement mirrors MemSan's zero-cost-when-off pattern
(:mod:`repro.analysis.sanitizer`): off by default, switched on with the
``REPRO_LOCKSAN=1`` environment variable or programmatically via
:func:`set_locksan`.  When off, :func:`make_lock` returns a plain
``threading.Lock`` and :func:`watch` is an identity function — watched
classes pay two extra function calls per construction and
nothing per access.

Under the test suite (see ``tests/conftest.py``) the global sanitizer
is checked after every test, so the whole suite doubles as a lock-
discipline stress test the same way it runs under MemSan.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import Any, Iterable, Optional

_OVERRIDE: Optional[bool] = None

_ENV_VAR = "REPRO_LOCKSAN"

_FALSEY = ("", "0", "false", "no", "off")

_HELD = threading.local()


def set_locksan(enabled: Optional[bool]) -> Optional[bool]:
    """Set the process-wide LockSan override; returns the previous value.

    ``True``/``False`` force LockSan on/off for subsequently constructed
    locks and watched objects regardless of the environment; ``None``
    defers to ``REPRO_LOCKSAN`` again.
    """
    global _OVERRIDE
    previous = _OVERRIDE
    _OVERRIDE = enabled
    return previous


def locksan_enabled() -> bool:
    """Whether new locks/objects should be instrumented."""
    if _OVERRIDE is not None:
        return _OVERRIDE
    return os.environ.get(_ENV_VAR, "").strip().lower() not in _FALSEY


def held_locks() -> frozenset[str]:
    """Names of the tracked locks the calling thread holds right now."""
    held = getattr(_HELD, "names", None)
    if not held:
        return frozenset()
    return frozenset(held)


@dataclass(frozen=True, order=True)
class LockSanFinding:
    """One dynamically observed lock-discipline violation."""

    cls: str
    attr: str
    threads: int
    writes: int
    locksets: tuple[tuple[str, ...], ...]
    """Distinct locksets observed across accesses, sorted."""

    def render(self) -> str:
        seen = ", ".join(
            "{" + ",".join(lockset) + "}" for lockset in sorted(self.locksets)
        )
        return (
            f"{self.cls}.{self.attr}: accessed by {self.threads} thread(s) "
            f"with inconsistent locksets [{seen}] and {self.writes} "
            "post-init write(s) — no common lock guards this attribute"
        )


class _AttrRecord:
    __slots__ = ("locksets", "threads", "writes")

    def __init__(self) -> None:
        self.locksets: set[frozenset[str]] = set()
        self.threads: set[int] = set()
        self.writes = 0


class LockSanitizer:
    """Records per-attribute access locksets; applies the Eraser rule."""

    def __init__(self) -> None:
        self._mutex = threading.Lock()
        self._records: dict[tuple[str, str], _AttrRecord] = {}
        self.checks = 0
        """Accesses recorded (cheap liveness signal for tests/benches)."""

    def note(self, cls: str, attr: str, write: bool) -> None:
        """Record one attribute access under the current thread's locks."""
        locks = held_locks()
        ident = threading.get_ident()
        with self._mutex:
            self.checks += 1
            record = self._records.setdefault((cls, attr), _AttrRecord())
            record.locksets.add(locks)
            record.threads.add(ident)
            if write:
                record.writes += 1

    def report(self) -> list[LockSanFinding]:
        """Candidate races seen so far (deterministically sorted).

        The Eraser rule: flag ``cls.attr`` when (a) two or more threads
        touched it, (b) it was written after instrumentation began, (c)
        the intersection of all access locksets is empty, and (d) at
        least one access *did* hold a lock — an attribute no lock ever
        guards is a design choice REP009 leaves to the static rule's
        mixed-discipline test, and single-threaded or read-only state
        races with nobody.
        """
        findings: list[LockSanFinding] = []
        with self._mutex:
            items = sorted(self._records.items())
        for (cls, attr), record in items:
            if len(record.threads) < 2 or record.writes == 0:
                continue
            if not any(record.locksets):
                continue  # never locked anywhere: not mixed discipline
            common = frozenset.intersection(*record.locksets)
            if common:
                continue  # a common guard exists
            findings.append(
                LockSanFinding(
                    cls=cls,
                    attr=attr,
                    threads=len(record.threads),
                    writes=record.writes,
                    locksets=tuple(
                        sorted(
                            tuple(sorted(lockset))
                            for lockset in record.locksets
                        )
                    ),
                )
            )
        return findings

    def reset(self) -> None:
        with self._mutex:
            self._records.clear()
            self.checks = 0


_SANITIZER: Optional[LockSanitizer] = None


def get_locksan() -> Optional[LockSanitizer]:
    """The process-wide sanitizer (created lazily while enabled)."""
    global _SANITIZER
    if _SANITIZER is None and locksan_enabled():
        _SANITIZER = LockSanitizer()
    return _SANITIZER if locksan_enabled() else None


class TrackedLock:
    """A ``threading.Lock`` that maintains the per-thread held-lock set."""

    __slots__ = ("name", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        acquired = self._lock.acquire(blocking, timeout)
        if acquired:
            held = getattr(_HELD, "names", None)
            if held is None:
                held = _HELD.names = set()
            held.add(self.name)
        return acquired

    def release(self) -> None:
        held = getattr(_HELD, "names", None)
        if held is not None:
            held.discard(self.name)
        self._lock.release()

    def locked(self) -> bool:
        return self._lock.locked()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc: Any) -> None:
        self.release()


def make_lock(name: str):
    """A lock for a watched class: tracked under LockSan, plain
    ``threading.Lock`` (zero overhead) otherwise."""
    if get_locksan() is not None:
        return TrackedLock(name)
    return threading.Lock()


_INSTRUMENTED: dict[type, type] = {}

_SAN_ATTR = "_locksan_watched"


def _instrumented_class(base: type) -> type:
    cached = _INSTRUMENTED.get(base)
    if cached is not None:
        return cached

    class Watched(base):  # type: ignore[misc,valid-type]
        def __getattribute__(self, name: str):
            value = base.__getattribute__(self, name)
            if name in base.__getattribute__(self, _SAN_ATTR):
                san = base.__getattribute__(self, "_locksan_san")
                san.note(base.__name__, name, write=False)
            return value

        def __setattr__(self, name: str, value: Any) -> None:
            base.__setattr__(self, name, value)
            if name in base.__getattribute__(self, _SAN_ATTR):
                san = base.__getattribute__(self, "_locksan_san")
                san.note(base.__name__, name, write=True)

    Watched.__name__ = f"LockSan[{base.__name__}]"
    Watched.__qualname__ = Watched.__name__
    _INSTRUMENTED[base] = Watched
    return Watched


def watch(
    obj: Any,
    exclude: Iterable[str] = (),
    sanitizer: Optional[LockSanitizer] = None,
) -> Any:
    """Instrument ``obj`` so LockSan records its attribute accesses.

    Call at the *end* of ``__init__``: every private (underscore)
    attribute bound at that point is watched, and anything recorded
    afterwards is by construction a post-init access.  Locks themselves
    and explicit ``exclude`` names are skipped.  A no-op returning
    ``obj`` unchanged when LockSan is off.
    """
    san = sanitizer if sanitizer is not None else get_locksan()
    if san is None:
        return obj
    skip = set(exclude)
    watched = frozenset(
        name
        for name, value in vars(obj).items()
        if name.startswith("_")
        and not name.startswith("_locksan")
        and name not in skip
        and not isinstance(value, TrackedLock)
    )
    cls = _instrumented_class(type(obj))
    object.__setattr__(obj, "_locksan_san", san)
    object.__setattr__(obj, _SAN_ATTR, watched)
    obj.__class__ = cls
    return obj
