"""Tests for the ConcSan rules (REP009/REP010/REP011).

Each rule gets positive, negative, and suppression fixtures, plus an
*interprocedural* fixture that only resolves through the call graph —
the point of the second-generation analyzer.  The pre-fix supervisor
defects are pinned as inline replicas so the patterns that motivated
the rules can never silently stop firing.
"""

from __future__ import annotations

from repro.analysis.lint import default_target, lint_modules, lint_paths, lint_text
from repro.analysis.noqa import Suppressions
from repro.analysis.rules import ModuleContext


def findings_of(*named_sources, rules):
    """Lint several (relpath, source) modules as one project."""
    modules = []
    suppressions = {}
    for relpath, source in named_sources:
        modules.append(ModuleContext.parse(relpath, source, relpath))
        suppressions[relpath] = Suppressions.from_source(source)
    return lint_modules(modules, suppressions, rules)


def rep(source, relpath="mod.py", rules=("REP009",)):
    return [
        (f.rule, f.line) for f in lint_text(source, relpath, rules=rules)
    ]


# ----------------------------------------------------------------------
# REP009 — lock discipline
# ----------------------------------------------------------------------


class TestRep009:
    def test_mixed_access_flagged(self):
        src = (
            "import threading\n"
            "class Counter:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._count = 0\n"
            "    def inc(self):\n"
            "        with self._lock:\n"
            "            self._count += 1\n"
            "    def reset(self):\n"
            "        self._count = 0\n"
        )
        findings = lint_text(src, "mod.py", rules=["REP009"])
        assert [(f.rule, f.line) for f in findings] == [("REP009", 10)]
        assert "Counter._count" in findings[0].message
        assert "written" in findings[0].message

    def test_consistent_locking_passes(self):
        src = (
            "import threading\n"
            "class Counter:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._count = 0\n"
            "    def inc(self):\n"
            "        with self._lock:\n"
            "            self._count += 1\n"
            "    def read(self):\n"
            "        with self._lock:\n"
            "            return self._count\n"
        )
        assert rep(src) == []

    def test_read_only_attribute_passes(self):
        # Written only in __init__: immutable-after-construction state
        # may be read with or without the lock.
        src = (
            "import threading\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._limit = 8\n"
            "    def a(self):\n"
            "        with self._lock:\n"
            "            return self._limit\n"
            "    def b(self):\n"
            "        return self._limit\n"
        )
        assert rep(src) == []

    def test_never_locked_attribute_passes(self):
        # No mixed discipline: the attribute is simply not lock-managed.
        src = (
            "import threading\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._n = 0\n"
            "    def a(self):\n"
            "        self._n += 1\n"
            "    def b(self):\n"
            "        return self._n\n"
        )
        assert rep(src) == []

    def test_event_attribute_exempt(self):
        # threading.Event is self-synchronizing (kind 'sync'): setting
        # it outside the lock while checking it inside is fine — this is
        # exactly the fixed supervisor stop-flag pattern.
        src = (
            "import threading\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._stop = threading.Event()\n"
            "    def stop(self):\n"
            "        self._stop.set()\n"
            "    def poll(self):\n"
            "        with self._lock:\n"
            "            return self._stop.is_set()\n"
        )
        assert rep(src) == []

    def test_lockless_class_not_audited(self):
        src = (
            "class C:\n"
            "    def __init__(self):\n"
            "        self._n = 0\n"
            "    def a(self):\n"
            "        self._n += 1\n"
        )
        assert rep(src) == []

    def test_private_helper_called_under_lock_is_guarded(self):
        # Interprocedural: _append never takes the lock itself, but its
        # only caller holds it, so its accesses count as guarded.
        src = (
            "import threading\n"
            "class Safe:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._items = []\n"
            "    def add(self, x):\n"
            "        with self._lock:\n"
            "            self._append(x)\n"
            "    def _append(self, x):\n"
            "        self._items.append(x)\n"
            "    def snapshot(self):\n"
            "        with self._lock:\n"
            "            return list(self._items)\n"
        )
        assert rep(src) == []

    def test_unlocked_call_path_breaks_the_guarantee(self):
        # Same class, plus one public caller that skips the lock: the
        # helper's entry floor drops to empty and the write is flagged.
        src = (
            "import threading\n"
            "class Unsafe:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._items = []\n"
            "    def add(self, x):\n"
            "        with self._lock:\n"
            "            self._append(x)\n"
            "    def drain(self, x):\n"
            "        self._append(x)\n"
            "    def _append(self, x):\n"
            "        self._items.append(x)\n"
            "    def snapshot(self):\n"
            "        with self._lock:\n"
            "            return list(self._items)\n"
        )
        assert rep(src) == [("REP009", 12)]

    def test_thread_target_escape_is_unlocked_entry(self):
        # A private method handed to Thread(target=...) can run with no
        # locks held, whatever its in-class callers hold.
        src = (
            "import threading\n"
            "class Esc:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._n = 0\n"
            "    def start(self):\n"
            "        threading.Thread(target=self._worker).start()\n"
            "    def _worker(self):\n"
            "        self._n += 1\n"
            "    def bump(self):\n"
            "        with self._lock:\n"
            "            self._n += 1\n"
        )
        assert rep(src) == [("REP009", 9)]

    def test_supervisor_stop_flag_regression(self):
        # Replica of the pre-fix stop-flag defect in the (since
        # retired) sweep-service supervisor:
        # stop() wrote the flag bare while _reap read it under the lock
        # (reached only through a locked caller — interprocedural).
        src = (
            "import threading\n"
            "class Sup:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._stopping = False\n"
            "    def stop(self):\n"
            "        self._stopping = True\n"
            "    def _reap(self):\n"
            "        if self._stopping:\n"
            "            return\n"
            "    def poll(self):\n"
            "        with self._lock:\n"
            "            self._reap()\n"
        )
        findings = lint_text(src, "sup.py", rules=["REP009"])
        assert [(f.rule, f.line) for f in findings] == [("REP009", 7)]
        assert "Sup._stopping" in findings[0].message

    def test_cross_module_caller_breaks_the_guarantee(self):
        worker_src = (
            "import threading\n"
            "class RemoteWorker:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._items = []\n"
            "    def put(self, x):\n"
            "        with self._lock:\n"
            "            self._unsafe_put(x)\n"
            "    def _unsafe_put(self, x):\n"
            "        self._items.append(x)\n"
            "    def get(self):\n"
            "        with self._lock:\n"
            "            return list(self._items)\n"
        )
        manager_src = (
            "from worker import RemoteWorker\n"
            "class Manager:\n"
            "    def __init__(self):\n"
            "        self.worker = RemoteWorker()\n"
            "    def run(self, x):\n"
            "        self.worker._unsafe_put(x)\n"
        )
        # Alone, every path into _unsafe_put holds the lock: clean.
        alone = findings_of(("worker.py", worker_src), rules=["REP009"])
        assert alone == []
        # The cross-module unlocked caller makes the write mixed.
        both = findings_of(
            ("worker.py", worker_src),
            ("manager.py", manager_src),
            rules=["REP009"],
        )
        assert [(f.path, f.rule, f.line) for f in both] == [
            ("worker.py", "REP009", 10)
        ]

    def test_noqa_suppresses(self):
        src = (
            "import threading\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._n = 0\n"
            "    def a(self):\n"
            "        with self._lock:\n"
            "            self._n += 1\n"
            "    def b(self):\n"
            "        self._n = 0  # repro: noqa REP009\n"
        )
        assert rep(src) == []


# ----------------------------------------------------------------------
# REP010 — fork/spawn safety
# ----------------------------------------------------------------------


class TestRep010:
    def test_process_start_under_lock(self):
        src = (
            "import multiprocessing\n"
            "import threading\n"
            "def main():\n"
            "    pass\n"
            "class Sup:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "    def spawn(self):\n"
            "        with self._lock:\n"
            "            proc = multiprocessing.Process(target=main)\n"
            "            proc.start()\n"
        )
        findings = lint_text(src, "mod.py", rules=["REP010"])
        assert [(f.rule, f.line) for f in findings] == [("REP010", 11)]
        assert "self._lock" in findings[0].message

    def test_start_after_release_passes(self):
        src = (
            "import multiprocessing\n"
            "import threading\n"
            "def main():\n"
            "    pass\n"
            "class Sup:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "    def spawn(self):\n"
            "        with self._lock:\n"
            "            proc = multiprocessing.Process(target=main)\n"
            "        proc.start()\n"
        )
        assert rep(src, rules=("REP010",)) == []

    def test_interprocedural_spawn_under_callers_lock(self):
        # The start() itself holds nothing; every caller holds the lock.
        src = (
            "import multiprocessing\n"
            "import threading\n"
            "def main():\n"
            "    pass\n"
            "class Sup:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "    def resize(self):\n"
            "        with self._lock:\n"
            "            self._do_spawn()\n"
            "    def _do_spawn(self):\n"
            "        proc = multiprocessing.Process(target=main)\n"
            "        proc.start()\n"
        )
        findings = lint_text(src, "mod.py", rules=["REP010"])
        assert [(f.rule, f.line) for f in findings] == [("REP010", 13)]

    def test_os_fork_under_local_lock_in_function(self):
        src = (
            "import os\n"
            "import threading\n"
            "def daemonize():\n"
            "    guard = threading.Lock()\n"
            "    with guard:\n"
            "        os.fork()\n"
        )
        findings = lint_text(src, "mod.py", rules=["REP010"])
        assert [(f.rule, f.line) for f in findings] == [("REP010", 6)]
        assert "guard" in findings[0].message

    def test_subprocess_under_lock(self):
        src = (
            "import subprocess\n"
            "import threading\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "    def run(self):\n"
            "        with self._lock:\n"
            "            subprocess.run(['ls'])\n"
        )
        assert rep(src, rules=("REP010",)) == [("REP010", 8)]

    def test_bound_method_target_capture(self):
        src = (
            "import multiprocessing\n"
            "import threading\n"
            "class S:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "    def go(self):\n"
            "        multiprocessing.Process(target=self._run).start()\n"
            "    def _run(self):\n"
            "        pass\n"
        )
        findings = lint_text(src, "mod.py", rules=["REP010"])
        assert [(f.rule, f.line) for f in findings] == [("REP010", 7)]
        assert "bound method self._run" in findings[0].message

    def test_risky_attribute_in_args_capture(self):
        src = (
            "import multiprocessing\n"
            "import socket\n"
            "def work(sock):\n"
            "    pass\n"
            "class S:\n"
            "    def __init__(self):\n"
            "        self._sock = socket.socket()\n"
            "    def go(self):\n"
            "        multiprocessing.Process(\n"
            "            target=work, args=(self._sock,)\n"
            "        ).start()\n"
        )
        findings = lint_text(src, "mod.py", rules=["REP010"])
        assert len(findings) == 1
        assert "self._sock (socket)" in findings[0].message

    def test_queue_in_args_passes(self):
        # multiprocessing queues are designed to cross the boundary.
        src = (
            "import multiprocessing\n"
            "def work(q):\n"
            "    pass\n"
            "class S:\n"
            "    def __init__(self):\n"
            "        self._tasks = multiprocessing.Queue()\n"
            "    def go(self):\n"
            "        multiprocessing.Process(\n"
            "            target=work, args=(self._tasks,)\n"
            "        ).start()\n"
        )
        assert rep(src, rules=("REP010",)) == []

    def test_noqa_suppresses(self):
        src = (
            "import os\n"
            "import threading\n"
            "def daemonize():\n"
            "    guard = threading.Lock()\n"
            "    with guard:\n"
            "        os.fork()  # repro: noqa REP010\n"
        )
        assert rep(src, rules=("REP010",)) == []


# ----------------------------------------------------------------------
# REP011 — crash consistency
# ----------------------------------------------------------------------

RAW_APPEND = (
    "def save(path, line):\n"
    "    with open(path, 'a') as handle:\n"
    "        handle.write(line)\n"
)


class TestRep011:
    def test_raw_append_in_journal_module(self):
        findings = lint_text(RAW_APPEND, "journal.py", rules=["REP011"])
        assert [(f.rule, f.line) for f in findings] == [("REP011", 2)]
        assert "torn-write story" in findings[0].message

    def test_same_write_in_unrelated_module_passes(self):
        assert rep(RAW_APPEND, "notes.py", rules=("REP011",)) == []

    def test_atomic_writer_passes(self):
        src = (
            "from repro.runstate.atomic import append_durable_line\n"
            "def save(path, line):\n"
            "    append_durable_line(path, line)\n"
        )
        assert rep(src, "journal.py", rules=("REP011",)) == []

    def test_runstate_write_side_exempt(self):
        # runstate/ IS the sanctioned torn-write-safe implementation.
        assert (
            rep(RAW_APPEND, "repro/runstate/journal.py", rules=("REP011",))
            == []
        )

    def test_json_dump_in_bench_module(self):
        src = (
            "import json\n"
            "def emit(rows, handle):\n"
            "    json.dump(rows, handle)\n"
        )
        assert rep(src, "bench_report.py", rules=("REP011",)) == [
            ("REP011", 3)
        ]

    def test_untolerated_parse_flagged(self):
        src = (
            "import json\n"
            "def load(line):\n"
            "    return json.loads(line)\n"
        )
        findings = lint_text(src, "journal.py", rules=["REP011"])
        assert [(f.rule, f.line) for f in findings] == [("REP011", 3)]
        assert "torn-record tolerance" in findings[0].message

    def test_tolerant_parse_passes(self):
        src = (
            "import json\n"
            "def load(line):\n"
            "    try:\n"
            "        return json.loads(line)\n"
            "    except ValueError:\n"
            "        return None\n"
        )
        assert rep(src, "journal.py", rules=("REP011",)) == []

    def test_runstate_read_side_not_exempt(self):
        # Even the sanctioned writer package must tolerate torn reads.
        src = (
            "import json\n"
            "def load(line):\n"
            "    return json.loads(line)\n"
        )
        assert rep(src, "repro/runstate/journal.py", rules=("REP011",)) == [
            ("REP011", 3)
        ]

    def test_intolerant_handler_does_not_count(self):
        src = (
            "import json\n"
            "def load(line):\n"
            "    try:\n"
            "        return json.loads(line)\n"
            "    except KeyError:\n"
            "        return None\n"
        )
        assert rep(src, "journal.py", rules=("REP011",)) == [("REP011", 4)]

    def test_noqa_suppresses(self):
        src = (
            "def save(path, line):\n"
            "    with open(path, 'a') as handle:  # repro: noqa REP011\n"
            "        handle.write(line)\n"
        )
        assert rep(src, "journal.py", rules=("REP011",)) == []


# ----------------------------------------------------------------------
# Multi-rule suppression and whole-repo gates
# ----------------------------------------------------------------------


class TestMultiRuleNoqa:
    def test_one_pragma_listing_both_rules(self):
        src = (
            "import json\n"
            "import threading\n"
            "class JournalBox:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._dirty = False\n"
            "    def mark(self):\n"
            "        with self._lock:\n"
            "            self._dirty = True\n"
            "    def clear(self):\n"
            "        self._dirty = False  # repro: noqa REP009,REP011\n"
            "    def load(self, text):\n"
            "        return json.loads(text)  # repro: noqa REP009,REP011\n"
        )
        # Full run: both findings suppressed, neither pragma is stale
        # (each suppressed at least one of its listed rules).
        assert lint_text(src, "journal_box.py") == []


class TestRepoTree:
    def test_concsan_rules_clean_on_repo(self):
        findings, errors = lint_paths(
            [default_target()], rules=["REP009", "REP010", "REP011"]
        )
        assert errors == []
        assert findings == []
