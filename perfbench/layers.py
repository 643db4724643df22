"""Host-time layer spans for the traced benchmark run.

:func:`install` wraps the public entry points of each ``src/repro``
layer with a timing span and :func:`Installation.restore` puts the
originals back.  Nothing under ``src/`` changes: every wrapper is
assigned at the name where the program looks the callable up — the
class attribute for methods, every module-level binding for plain
functions (``repro.experiments.harness.load_dataset`` as well as
``repro.graph.datasets.load_dataset``), and the shared ``ORDERINGS``
dict entries for the reorder functions.

Spans nest strictly (the runner is single-threaded), so a layer's self
time is its span time minus the time of its direct child spans, and the
self times of all layers plus the unattributed rest add up to the
traced wall time.  Importing this module imports nothing from ``repro``.
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

LAYER_METRICS = {
    # span name -> per-layer self-time metric
    "cli.import": "cli.import_s",
    "graph.load_dataset": "graph.load_dataset_s",
    "graph.reorder": "graph.reorder_s",
    "workloads.stream": "workloads.stream_s",
    "bench.stream_hash": "bench.stream_hash_s",
    "machine.translate": "machine.translate_s",
    "machine.swap": "machine.swap_s",
    "machine.run": "machine.run_self_s",
    "tlb.simulate": "tlb.simulate_s",
    "mem.machine_init": "mem.machine_init_s",
    "mem.touch": "mem.touch_s",
    "mem.khugepaged": "mem.khugepaged_s",
    "mem.scenario": "mem.scenario_s",
    "policy.epoch": "policy.epoch_s",
    "experiments.run_cell": "experiments.harness_self_s",
    "runstate.journal": "runstate.journal_s",
}
"""Every span name the benchmark records, with the metric its summed
self time is reported under.  ``bench.stream_hash`` is the benchmark's
own cost of telling distinct access streams apart."""


class SpanLog:
    """In-memory span recorder: name, start, end, parent and cell id.

    Times are ``time.monotonic_ns()`` readings, the clock the benchmark
    driver also uses for process spawn and exit, so spans from a child
    process line up with the wall time measured around it.
    """

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self._stack: list[int] = []
        self.cell = "-"
        self.entered: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._stream_digests: set[bytes] = set()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [name, time.monotonic_ns(), None, parent, self.cell]
        self.spans.append(record)
        self._stack.append(index)
        self.entered[name] += 1
        try:
            yield
        finally:
            record[2] = time.monotonic_ns()
            self._stack.pop()

    def note_stream(self, stream: Any) -> None:
        """Count one yielded access stream and whether its content was
        seen before in this run (streams do not depend on the policy)."""
        with self.span("bench.stream_hash"):
            digest = hashlib.blake2b(digest_size=16)
            digest.update(stream.array_ids.tobytes())
            digest.update(stream.indices.tobytes())
            self._stream_digests.add(digest.digest())
        self.counts["streams"] += 1
        self.counts["accesses"] += len(stream)

    @property
    def distinct_streams(self) -> int:
        return len(self._stream_digests)

    def self_ns(self) -> dict[str, int]:
        """Summed self time per span name, in nanoseconds."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _cell in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        totals: dict[str, int] = defaultdict(int)
        for index, (name, start, end, _parent, _cell) in enumerate(
            self.spans
        ):
            totals[name] += end - start - child_ns[index]
        return dict(totals)

    def write(self, path: str, origin_ns: int) -> None:
        """Write one JSON object per span, times relative to
        ``origin_ns`` (the spawn of the traced process)."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, cell) in enumerate(
                self.spans
            ):
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "start_ns": start - origin_ns,
                            "end_ns": end - origin_ns,
                            "parent": parent,
                            "cell": cell,
                        }
                    )
                    + "\n"
                )


@dataclass
class Patch:
    """One wrapped lookup site: ``owner.attr`` (``owner[attr]`` for a
    dict) held ``original`` and now holds ``wrapper``."""

    owner: Any
    attr: str
    original: Any
    wrapper: Any

    @property
    def label(self) -> str:
        if isinstance(self.owner, dict):
            return f"ORDERINGS[{self.attr!r}]"
        name = getattr(self.owner, "__qualname__", self.owner.__name__)
        return f"{name}.{self.attr}"

    def current(self) -> Any:
        if isinstance(self.owner, dict):
            return self.owner[self.attr]
        return vars(self.owner).get(self.attr)

    def assign(self, value: Any) -> None:
        if isinstance(self.owner, dict):
            self.owner[self.attr] = value
        else:
            setattr(self.owner, self.attr, value)


@dataclass
class Installation:
    """The wrappers :func:`install` put in place."""

    patches: list[Patch] = field(default_factory=list)

    def layers(self) -> set[str]:
        return {patch.wrapper.layer for patch in self.patches}

    def restore(self) -> None:
        """Put every original back, then sweep the loaded ``repro``
        modules for a wrapper bound by a module imported while the
        wrappers were installed."""
        originals = {}
        for patch in reversed(self.patches):
            originals[id(patch.wrapper)] = patch.original
            patch.assign(patch.original)
        for module in repro_modules():
            for name, value in list(vars(module).items()):
                if id(value) in originals:
                    setattr(module, name, originals[id(value)])
        self.patches.clear()


def repro_modules() -> list[Any]:
    return [
        module
        for name, module in sorted(sys.modules.items())
        if (name == "repro" or name.startswith("repro.")) and module
    ]


def _subclasses(cls: type) -> list[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(s for s in _subclasses(sub) if s not in found)
    return found


def _timed(log: SpanLog, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        with log.span(name):
            return fn(*args, **kwargs)

    return wrapper


def _stream_steps(log: SpanLog, run: Callable) -> Callable:
    """Wrap a ``Workload.run`` generator so each step is one span."""

    @functools.wraps(run)
    def wrapper(self: Any, *args: Any, **kwargs: Any) -> Iterator[Any]:
        steps = run(self, *args, **kwargs)
        while True:
            with log.span("workloads.stream"):
                try:
                    stream = next(steps)
                except StopIteration:
                    return
            log.note_stream(stream)
            yield stream

    return wrapper


def _run_cell(log: SpanLog, run_cell: Callable) -> Callable:
    """Wrap ``ExperimentRunner.run_cell``: tag child spans with the cell
    id, tell cache hits from executed cells and fold the executed
    cells' exact counts from the returned ``RunMetrics``."""

    @functools.wraps(run_cell)
    def wrapper(
        self: Any, workload: str, dataset: str, policy: Any, scenario: Any
    ) -> Any:
        outer = log.cell
        log.cell = f"{workload}/{dataset}/{policy.name}/{scenario.name}"
        machine_runs = log.entered["machine.run"]
        try:
            with log.span("experiments.run_cell"):
                result = run_cell(self, workload, dataset, policy, scenario)
        finally:
            log.cell = outer
        log.counts["run_cell_calls"] += 1
        if log.entered["machine.run"] == machine_runs:
            log.counts["cache_hits"] += 1
        elif result.ok:
            translation = result.translation
            log.counts["lookups"] += translation.total_accesses
            log.counts["l1_misses"] += translation.total_l1_misses
            log.counts["walks"] += translation.total_walks
            log.counts["huge_bytes"] += result.huge_bytes
            log.counts["swap_ins"] += result.swap_ins
        return result

    return wrapper


def _method_sites() -> list[tuple[str, type, str]]:
    """(span name, class, attribute) for every wrapped method, one entry
    per class that defines its own override."""
    from repro.experiments.harness import ExperimentRunner
    from repro.graph.csr import CsrGraph
    from repro.machine.machine import Machine
    from repro.machine.process import SimProcess
    from repro.mem.heuristics import HugePageManager
    from repro.mem.profiler import PageProfiler
    from repro.mem.vmm import VirtualMemoryManager
    from repro.runstate.journal import RunJournal
    from repro.tlb.engine import BatchTranslationHierarchy
    from repro.tlb.hierarchy import TranslationHierarchy
    from repro.workloads.base import Workload

    sites = [
        ("graph.reorder", CsrGraph, "relabel"),
        ("machine.translate", SimProcess, "translate"),
        ("machine.swap", SimProcess, "service_swap"),
        ("machine.run", Machine, "run"),
        ("tlb.simulate", TranslationHierarchy, "simulate"),
        ("tlb.simulate", BatchTranslationHierarchy, "simulate"),
        ("mem.machine_init", Machine, "__init__"),
        ("mem.touch", SimProcess, "allocate_and_touch"),
        ("mem.khugepaged", VirtualMemoryManager, "khugepaged_pass"),
        ("policy.epoch", PageProfiler, "observe"),
        ("experiments.run_cell", ExperimentRunner, "run_cell"),
        ("runstate.journal", RunJournal, "begin"),
        ("runstate.journal", RunJournal, "record_result"),
        ("runstate.journal", RunJournal, "result"),
    ]
    for attr in (
        "memhog_leave_free",
        "fragment",
        "reserve_hugetlb",
        "scatter_noise",
        "finish_setup",
    ):
        sites.append(("mem.scenario", Machine, attr))
    for cls in _subclasses(HugePageManager):
        if "on_iteration" in vars(cls):
            sites.append(("policy.epoch", cls, "on_iteration"))
    for cls in _subclasses(Workload):
        if "run" in vars(cls):
            sites.append(("workloads.stream", cls, "run"))
    return sites


def install(log: SpanLog) -> Installation:
    """Wrap every layer's public entry points, recording into ``log``;
    returns the installation whose :meth:`~Installation.restore` undoes
    it."""
    # Load every module that binds a wrapped name before patching, so
    # the module-binding sweep sees them all.
    import repro.cli  # noqa: F401
    import repro.core.autotuner  # noqa: F401
    import repro.policy.tournament  # noqa: F401
    import repro.policy.zoo  # noqa: F401
    from repro.graph import datasets
    from repro.graph.reorder import ORDERINGS

    installation = Installation()

    def wrap(owner: Any, attr: str, original: Any, wrapper: Any,
             layer: str) -> None:
        wrapper.layer = layer
        patch = Patch(owner, attr, original, wrapper)
        patch.assign(wrapper)
        installation.patches.append(patch)

    load_dataset = datasets.load_dataset
    wrapped = _timed(log, "graph.load_dataset", load_dataset)
    for module in repro_modules():
        for name, value in list(vars(module).items()):
            if value is load_dataset:
                wrap(module, name, load_dataset, wrapped, "graph.load_dataset")
    for name, ordering in list(ORDERINGS.items()):
        wrapper = _timed(log, "graph.reorder", ordering)
        wrap(ORDERINGS, name, ordering, wrapper, "graph.reorder")
    for layer, cls, attr in _method_sites():
        original = getattr(cls, attr)
        if layer == "workloads.stream":
            wrapper = _stream_steps(log, original)
        elif layer == "experiments.run_cell":
            wrapper = _run_cell(log, original)
        else:
            wrapper = _timed(log, layer, original)
        wrap(cls, attr, original, wrapper, layer)
    return installation


def layer_metrics(log: SpanLog) -> dict[str, float]:
    """The per-layer metrics of one traced process: self seconds per
    layer and the exact counts.  ``other_s`` needs the process's wall
    time, which only the driver that spawned it can measure."""
    self_ns = log.self_ns()
    metrics: dict[str, float] = {
        metric: self_ns.get(name, 0) / 1e9
        for name, metric in LAYER_METRICS.items()
    }
    counts = log.counts
    accesses = counts["accesses"]
    lookups = counts["lookups"]
    streams = counts["streams"]
    calls = counts["run_cell_calls"]
    metrics.update(
        {
            "workloads.accesses": accesses,
            "workloads.distinct_stream_share": (
                log.distinct_streams / streams if streams else 0.0
            ),
            "machine.translate_ns_per_access": (
                self_ns.get("machine.translate", 0) / accesses
                if accesses else 0.0
            ),
            "machine.swap_ins": counts["swap_ins"],
            "tlb.ns_per_lookup": (
                self_ns.get("tlb.simulate", 0) / lookups if lookups else 0.0
            ),
            "tlb.lookups": lookups,
            "tlb.l1_misses": counts["l1_misses"],
            "tlb.walks": counts["walks"],
            "mem.huge_bytes": counts["huge_bytes"],
            "experiments.cache_hit_share": (
                counts["cache_hits"] / calls if calls else 0.0
            ),
        }
    )
    return metrics
