"""Census of what the analysis layer guards.

The analyzer once carried a static lock-discipline rule, a fork/spawn
safety rule and a runtime lockset sanitizer.  All three were deleted
because ``src/repro`` gives them nothing to check: no class owns a
mutex, and no method builds a ``Process``.  This module turns that
premise into a check, so the deletion cannot silently go stale:

- no call in ``src/repro`` builds a real mutex (``threading.Lock`` /
  ``RLock`` / ``Condition``, or ``Lock`` / ``RLock`` from
  ``multiprocessing`` or from a ``multiprocessing`` context);
- no ``Process(...)`` is built inside a class body;
- the rule registries cover exactly the rule catalogue.

``runstate.lock.PidLock`` is a pidfile taken through ``acquire()`` /
``release()``; it is not a mutex and the census does not count it.
Code that adds a mutex or a method-level spawn must bring a
concurrency check back with it.
"""

from __future__ import annotations

import ast
import os

from repro.analysis.findings import ALL_RULES
from repro.analysis.lint import default_target, iter_python_files
from repro.analysis.project import PROJECT_RULES
from repro.analysis.rules import PER_FILE_RULES, ModuleContext

MUTEX_FACTORIES = frozenset(
    {
        "threading.Lock",
        "threading.RLock",
        "threading.Condition",
        "multiprocessing.Lock",
        "multiprocessing.RLock",
    }
)
"""Dotted constructor paths (import aliases resolved) of real mutexes."""

CONTEXT_MUTEXES = frozenset({"Lock", "RLock"})
"""Mutex factories reached through a ``multiprocessing`` context."""


def _mp_contexts(ctx: ModuleContext) -> set[str]:
    """Names and ``self.x`` attributes bound to ``get_context(...)``."""
    bound: set[str] = set()
    for node in ast.walk(ctx.tree):
        if (
            isinstance(node, (ast.Assign, ast.AnnAssign))
            and isinstance(node.value, ast.Call)
            and ctx.qualify(node.value.func) == "multiprocessing.get_context"
        ):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                name = ctx.qualify(target)
                if name is not None:
                    bound.add(name)
    return bound


def mutex_sites(ctx: ModuleContext) -> list[int]:
    """Lines of calls in ``ctx`` that construct a real mutex."""
    contexts = _mp_contexts(ctx)
    lines = []
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if ctx.qualify(func) in MUTEX_FACTORIES:
            lines.append(node.lineno)
        elif isinstance(func, ast.Attribute) and func.attr in CONTEXT_MUTEXES:
            owner = func.value
            if isinstance(owner, ast.Call):
                via_context = (
                    ctx.qualify(owner.func) == "multiprocessing.get_context"
                )
            else:
                via_context = ctx.qualify(owner) in contexts
            if via_context:
                lines.append(node.lineno)
    return sorted(lines)


def method_process_sites(ctx: ModuleContext) -> list[int]:
    """Lines of ``Process(...)`` calls made inside a class body."""
    lines = set()
    for cls in ast.walk(ctx.tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in ast.walk(cls):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(
                func, "id", None
            )
            if name == "Process":
                lines.add(node.lineno)
    return sorted(lines)


def census(modules: list[ModuleContext]) -> dict[str, list[str]]:
    """``{"mutex": [...], "process": [...]}`` as ``path:line`` strings."""
    found: dict[str, list[str]] = {"mutex": [], "process": []}
    for ctx in modules:
        found["mutex"] += [f"{ctx.relpath}:{n}" for n in mutex_sites(ctx)]
        found["process"] += [
            f"{ctx.relpath}:{n}" for n in method_process_sites(ctx)
        ]
    return found


def _parse(source: str, relpath: str = "fixture.py") -> ModuleContext:
    return ModuleContext.parse(relpath, source, relpath)


def _repo_modules() -> list[ModuleContext]:
    root = os.path.dirname(default_target())
    modules = []
    for path in iter_python_files([default_target()]):
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
        modules.append(
            ModuleContext.parse(path, source, os.path.relpath(path, root))
        )
    return modules


class TestRepoCensus:
    def test_no_mutex_in_src(self):
        sites = census(_repo_modules())["mutex"]
        assert sites == [], (
            f"src/repro builds a mutex at {sites}. The static "
            "lock-discipline rule and the runtime lockset sanitizer were "
            "deleted because no such site existed (CHANGES.md); add a "
            "lock-discipline check together with this lock."
        )

    def test_no_process_built_in_a_method(self):
        sites = census(_repo_modules())["process"]
        assert sites == [], (
            f"src/repro builds a Process inside a class at {sites}. The "
            "fork/spawn safety rule was deleted because no such site "
            "existed (CHANGES.md); add a spawn-capture check together "
            "with this spawn site."
        )

    def test_registries_cover_the_catalogue(self):
        per_file, project = set(PER_FILE_RULES), set(PROJECT_RULES)
        assert per_file.isdisjoint(project)
        assert per_file | project == set(ALL_RULES) - {"REP000"}


class TestCensusHelpers:
    def test_lock_attribute_caught(self):
        src = (
            "import threading\n"
            "class Box:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
        )
        assert census([_parse(src)])["mutex"] == ["fixture.py:4"]

    def test_aliased_imports_caught(self):
        src = (
            "import threading as th\n"
            "from threading import RLock\n"
            "from multiprocessing import Lock\n"
            "a = th.Condition()\n"
            "b = RLock()\n"
            "c = Lock()\n"
        )
        assert mutex_sites(_parse(src)) == [4, 5, 6]

    def test_context_lock_caught(self):
        src = (
            "import multiprocessing\n"
            "mp = multiprocessing.get_context('spawn')\n"
            "a = mp.Lock()\n"
            "b = multiprocessing.get_context().RLock()\n"
            "class Pool:\n"
            "    def __init__(self):\n"
            "        self._ctx: object = multiprocessing.get_context()\n"
            "        self._lock = self._ctx.Lock()\n"
            "        self._queue = self._ctx.Queue()\n"
        )
        assert mutex_sites(_parse(src)) == [3, 4, 8]

    def test_pidfile_and_sync_primitives_not_counted(self):
        src = (
            "import threading\n"
            "from repro.runstate.lock import PidLock\n"
            "class Runs:\n"
            "    def __init__(self, path):\n"
            "        self._lock = PidLock(path)\n"
            "        self._stop = threading.Event()\n"
            "        self._thread = threading.Thread(target=self.run)\n"
        )
        assert census([_parse(src)]) == {"mutex": [], "process": []}

    def test_process_in_method_caught(self):
        src = (
            "import multiprocessing\n"
            "def fan_out(ctx):\n"
            "    return ctx.Process(target=print)\n"
            "class Supervisor:\n"
            "    def start(self):\n"
            "        self._proc = multiprocessing.Process(target=self.run)\n"
        )
        assert census([_parse(src)])["process"] == ["fixture.py:6"]
