"""Exact cross-cell replay of compute-phase stream outcomes.

A sweep runs the same workload under many policies and scenarios, and
many of those cells end with the same page-size map (every THP policy
falls back to 4KB under pressure; 4KB ignores fragmentation).  What one
access stream does in the compute phase — its translation, its TLB
counts, the swap exchanges it causes and the TLB state it leaves — is a
pure function of:

- the stream itself, named by the caller's *stream key* (the runner's
  graph-cache key, the workload name and its iteration cap) plus the
  stream's index in the run;
- the process layout :meth:`SimProcess.translation_layout` reads (start
  page numbers, element sizes, the per-page size map and, when swap is
  active, residency);
- the TLB state on entry, which is determined by the chain of previous
  stream outcomes back to the last flush (a fresh hierarchy counts as
  flushed);
- the engine and its geometry, and the page shifts.

:class:`ReplayMemo` keys each outcome by exactly those inputs.  On a hit
the machine applies the stored counts, restores the stored TLB state and
replays the ledger and swap-device charges instead of re-simulating, so
every result, journal record and trace event is byte-identical to a
fresh run.  Stream content is never hashed: the stream key names it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable, Optional

from ..tlb.hierarchy import TranslationStats


@dataclass(frozen=True)
class StreamOutcome:
    """What one simulated stream did: its count deltas, the swap
    exchanges it charged and the engine state it left behind."""

    stats: TranslationStats
    swap_ins: int
    state: Any


class ReplayMemo:
    """Stream outcomes shared by every cell one runner executes.

    Bounded: once :attr:`MAX_ENTRIES` outcomes are held the memo starts
    over, so a long-lived runner cannot grow it without limit.  Entry
    and layout ids come from one counter that never rewinds, so a key
    never aliases one minted before a reset.
    """

    MAX_ENTRIES = 1024

    def __init__(self) -> None:
        self._entries: dict[tuple, tuple[int, StreamOutcome]] = {}
        self._layouts: dict[tuple, int] = {}
        self._next_id = 0
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        """Drop every stored outcome and layout (counters too)."""
        self._entries.clear()
        self._layouts.clear()
        self.hits = 0
        self.misses = 0

    def _mint(self) -> int:
        self._next_id += 1
        return self._next_id

    def layout_id(self, layout: tuple) -> int:
        """A small id standing for one distinct process layout."""
        found = self._layouts.get(layout)
        if found is None:
            found = self._layouts[layout] = self._mint()
        return found

    def cursor(
        self, stream_key: Hashable, hierarchy: Any, process: Any,
        check_swap: bool,
    ) -> "ReplayCursor":
        """A cursor over one compute phase's streams."""
        pages = process.config.pages
        scope = (
            hierarchy.engine,
            hierarchy.config,
            pages.base_shift,
            pages.huge_shift,
            stream_key,
        )
        return ReplayCursor(self, scope, process, check_swap)

    def _get(self, key: tuple) -> Optional[tuple[int, StreamOutcome]]:
        found = self._entries.get(key)
        if found is None:
            self.misses += 1
        else:
            self.hits += 1
        return found

    def _put(self, key: tuple, outcome: StreamOutcome) -> int:
        if len(self._entries) >= self.MAX_ENTRIES:
            self._entries.clear()
            self._layouts.clear()
        entry_id = self._mint()
        self._entries[key] = (entry_id, outcome)
        return entry_id


class ReplayCursor:
    """Walks one compute phase through a :class:`ReplayMemo`: one
    :meth:`lookup` per stream, then :meth:`store` on a miss, and
    :meth:`flush` whenever the hierarchy is flushed."""

    def __init__(
        self, memo: ReplayMemo, scope: tuple, process: Any, check_swap: bool
    ) -> None:
        self._memo = memo
        self._scope = scope
        self._process = process
        self._check_swap = check_swap
        self._index = 0
        self._previous = 0  # no entry: a fresh or flushed hierarchy
        self._pending: Optional[tuple] = None

    def lookup(self) -> Optional[StreamOutcome]:
        """The stored outcome of the next stream, or None to simulate
        it (and :meth:`store` the result)."""
        layout = self._memo.layout_id(
            self._process.translation_layout(self._check_swap)
        )
        key = (self._scope, self._index, layout, self._previous)
        self._index += 1
        found = self._memo._get(key)
        if found is None:
            self._pending = key
            return None
        self._previous, outcome = found
        return outcome

    def store(self, outcome: StreamOutcome) -> None:
        """Record the outcome of the stream the last lookup missed."""
        assert self._pending is not None, "store() without a missed lookup"
        self._previous = self._memo._put(self._pending, outcome)
        self._pending = None

    def flush(self) -> None:
        """The hierarchy was flushed: later streams start from empty."""
        self._previous = 0
