"""Tests for LockSan, the runtime lockset sanitizer (REP009's twin).

The centerpiece is the confirmation pair: a replica of the *pre-fix*
stop-flag defect in the (since retired) sweep-service supervisor
produces a dynamic violation under two threads (REP009 confirmed by
execution, not just by the static model), and the Event-based fix runs
clean under the same drill.
"""

from __future__ import annotations

import threading

from repro.analysis.locksan import (
    LockSanitizer,
    TrackedLock,
    held_locks,
    make_lock,
    set_locksan,
    watch,
)


def run_in_thread(fn):
    thread = threading.Thread(target=fn)
    thread.start()
    thread.join()


class TestTrackedLock:
    def test_held_set_tracks_acquire_release(self):
        lock = TrackedLock("L")
        assert held_locks() == frozenset()
        with lock:
            assert held_locks() == frozenset({"L"})
        assert held_locks() == frozenset()

    def test_nested_locks(self):
        outer, inner = TrackedLock("outer"), TrackedLock("inner")
        with outer:
            with inner:
                assert held_locks() == frozenset({"outer", "inner"})
            assert held_locks() == frozenset({"outer"})

    def test_held_set_is_per_thread(self):
        lock = TrackedLock("L")
        seen = {}

        def other():
            seen["held"] = held_locks()

        with lock:
            run_in_thread(other)
        assert seen["held"] == frozenset()

    def test_nonblocking_acquire_failure_does_not_record(self):
        lock = TrackedLock("L")
        lock.acquire()
        seen = {}

        def other():
            seen["got"] = lock.acquire(blocking=False)
            seen["held"] = held_locks()

        run_in_thread(other)
        lock.release()
        assert seen["got"] is False
        assert seen["held"] == frozenset()


class PreFixSupervisor:
    """Replica of the retired supervisor's pre-fix ``_stopping`` defect:
    the flag is written bare in stop() but read under the lock in
    poll()."""

    def __init__(self, san):
        self._lock = TrackedLock("PreFixSupervisor._lock")
        self._stopping = False
        watch(self, sanitizer=san)

    def stop(self):
        self._stopping = True

    def poll(self):
        with self._lock:
            return self._stopping


class FixedSupervisor:
    """The shipped fix: a self-synchronizing Event, never rebound."""

    def __init__(self, san):
        self._lock = TrackedLock("FixedSupervisor._lock")
        self._stop = threading.Event()
        watch(self, sanitizer=san)

    def stop(self):
        self._stop.set()

    def poll(self):
        with self._lock:
            return self._stop.is_set()


class TestEraserRule:
    def test_prefix_stop_flag_violation_confirmed(self):
        """LockSan dynamically confirms the REP009 supervisor finding."""
        san = LockSanitizer()
        sup = PreFixSupervisor(san)
        run_in_thread(sup.poll)  # guarded read on another thread
        sup.stop()  # bare write on this thread
        report = san.report()
        assert [(v.cls, v.attr) for v in report] == [
            ("PreFixSupervisor", "_stopping")
        ]
        violation = report[0]
        assert violation.threads == 2
        assert violation.writes >= 1
        assert "no common lock" in violation.render()

    def test_fixed_event_pattern_is_clean(self):
        san = LockSanitizer()
        sup = FixedSupervisor(san)
        run_in_thread(sup.poll)
        sup.stop()
        assert san.report() == []

    def test_consistent_locking_is_clean(self):
        san = LockSanitizer()
        sup = PreFixSupervisor(san)

        def locked_stop():
            with sup._lock:
                sup._stopping = True

        run_in_thread(sup.poll)
        locked_stop()
        assert san.report() == []

    def test_single_thread_is_clean(self):
        san = LockSanitizer()
        sup = PreFixSupervisor(san)
        sup.poll()
        sup.stop()
        assert san.report() == []

    def test_never_locked_attribute_is_clean(self):
        """An attribute no lock ever guards is not *mixed* discipline —
        that split is the static rule's to make."""
        san = LockSanitizer()

        class Bare:
            def __init__(self):
                self._n = 0
                watch(self, sanitizer=san)

            def bump(self):
                self._n += 1

        obj = Bare()
        run_in_thread(obj.bump)
        obj.bump()
        assert san.report() == []

    def test_init_writes_are_not_counted(self):
        # watch() runs at the end of __init__, so construction writes
        # never look like post-init mutation.
        san = LockSanitizer()
        sup = PreFixSupervisor(san)
        run_in_thread(sup.poll)
        sup.poll()
        assert san.report() == []

    def test_reset_clears_records(self):
        san = LockSanitizer()
        sup = PreFixSupervisor(san)
        run_in_thread(sup.poll)
        sup.stop()
        assert san.report() != []
        san.reset()
        assert san.report() == []
        assert san.checks == 0


class TestEnablement:
    def test_disabled_is_a_no_op(self):
        previous = set_locksan(False)
        try:
            assert not isinstance(make_lock("x"), TrackedLock)

            class Plain:
                def __init__(self):
                    self._x = 1

            obj = Plain()
            assert watch(obj) is obj
            assert type(obj) is Plain
        finally:
            set_locksan(previous)

    def test_enabled_instruments(self):
        previous = set_locksan(True)
        try:
            assert isinstance(make_lock("x"), TrackedLock)
        finally:
            set_locksan(previous)
