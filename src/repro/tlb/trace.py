"""Access streams and TLB traces.

Workloads emit *logical* access streams: parallel arrays of
``(array_id, element_index)`` in program order, exactly following the
paper's Fig. 4 pseudocode (sequential vertex/edge array reads interleaved
with pointer-indirect property accesses).  A stream comes as a sequence
of column blocks, built as the machine reads them, so it never has to
exist whole.  The machine translates a stream against the process's
memory layout into a *TLB trace*: page keys annotated with page-size
class, run-length compressed, with keys and run lengths held in 32 bits
wherever they fit (:func:`trace_dtypes`).

Page keys pack the page number and size class into one integer::

    key = (page_number << 1) | size_class      # size: 0 = base, 1 = huge

so keys are unique across sizes and cheap to split in the simulation
loop.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Iterable, Iterator, Optional

import numpy as np

MAX_ARRAY_IDS = 8
"""Upper bound on distinct data-structure ids in one workload."""

Columns = tuple[np.ndarray, np.ndarray]
"""An access stream's ``(array_ids, indices)``, or one block of them."""


class AccessStream:
    """A program-order sequence of logical array accesses.

    Attributes:
        array_ids: ``uint8`` array naming which data structure each access
            touches (workload-defined ids, e.g. 0=vertex, 1=edge,
            2=values, 3=property).
        indices: ``int64`` element index within that array.
        identity: ``None``, or a name the workload gives a stream it
            repeats verbatim within one run (a data-independent pass,
            such as PageRank's edge sweep).  Streams of one run that
            share an identity have equal columns, so the process
            translates them once per layout
            (:meth:`~repro.machine.process.SimProcess.translate`).
            Frontier streams, whose content depends on the data, have
            none.

    The process reads a stream through :meth:`blocks`, one ``(array_ids,
    indices)`` block at a time.  A stream made by :meth:`deferred` knows
    its length up front and builds each block only as it is read, so
    translating it never holds a stream-length column.  Reading
    :attr:`array_ids` or :attr:`indices` concatenates the blocks once
    and keeps the columns, for callers that want them whole.  A
    cross-cell replay hit (:mod:`repro.machine.replay`) reads neither,
    and neither does a stream whose translation the process reuses.
    """

    __slots__ = ("_array_ids", "_indices", "_length", "_blocks", "identity")

    def __init__(self, array_ids: np.ndarray, indices: np.ndarray) -> None:
        if array_ids.shape != indices.shape:
            raise ValueError("array_ids and indices must have equal length")
        self._array_ids = array_ids
        self._indices = indices
        self._length = int(array_ids.size)
        self._blocks: Optional[Callable[[], Iterable[Columns]]] = None
        self.identity: Optional[Hashable] = None

    @classmethod
    def deferred(
        cls,
        length: int,
        blocks: Callable[[], Iterable[Columns]],
        identity: Optional[Hashable] = None,
    ) -> "AccessStream":
        """A stream of ``length`` accesses whose ``(array_ids, indices)``
        blocks ``blocks()`` yields in program order, building each as it
        goes.  ``blocks`` is called once per read of the stream, so it
        must capture only arrays nobody writes to afterwards."""
        stream = cls.__new__(cls)
        stream._array_ids = stream._indices = None
        stream._length = length
        stream._blocks = blocks
        stream.identity = identity
        return stream

    def blocks(self) -> Iterator[Columns]:
        """The stream's ``(array_ids, indices)`` blocks in program order:
        the deferred blocks as they are built, or the stream's own
        columns as one block.

        Raises:
            ValueError: once the blocks add up to more accesses than the
                stream's length, or at the end to fewer.
        """
        if self._blocks is None:
            yield self._array_ids, self._indices
            return
        seen = 0
        for array_ids, indices in self._blocks():
            if indices.shape != array_ids.shape:
                raise ValueError(
                    f"deferred stream built a block of {array_ids.size} "
                    f"array ids and {indices.size} indices"
                )
            seen += array_ids.size
            if seen > self._length:
                raise ValueError(
                    f"deferred stream built more than {self._length} "
                    f"accesses"
                )
            yield array_ids, indices
        if seen != self._length:
            raise ValueError(
                f"deferred stream built {seen} accesses, not {self._length}"
            )

    def _materialize(self) -> None:
        """Concatenate the deferred blocks into the stream's columns."""
        parts = list(self.blocks())
        if len(parts) == 1:
            self._array_ids, self._indices = parts[0]
        else:
            self._array_ids = np.concatenate(
                [p[0] for p in parts] or [np.empty(0, dtype=np.uint8)]
            )
            self._indices = np.concatenate(
                [p[1] for p in parts] or [np.empty(0, dtype=np.int64)]
            )
        self._blocks = None

    @property
    def array_ids(self) -> np.ndarray:
        if self._blocks is not None:
            self._materialize()
        return self._array_ids

    @property
    def indices(self) -> np.ndarray:
        if self._blocks is not None:
            self._materialize()
        return self._indices

    def __len__(self) -> int:
        return self._length

    @staticmethod
    def concatenate(
        streams: list["AccessStream"], identity: Optional[Hashable] = None
    ) -> "AccessStream":
        """Concatenate streams in order: the result yields each part's
        blocks in turn, copying nothing.  The parts' identities do not
        carry over; ``identity`` names the result."""
        return AccessStream.deferred(
            sum(len(s) for s in streams),
            lambda: itertools.chain.from_iterable(s.blocks() for s in streams),
            identity,
        )


@dataclass
class TlbTrace:
    """A page-granular, run-length-compressed translation trace.

    Attributes:
        keys: packed page keys (``(page << 1) | size``).
        counts: run length of each key (consecutive repeats collapsed;
            hits after the first access in a run are L1 hits by
            construction).  Keys and counts are ``int32`` where they
            fit (:func:`trace_dtypes`).
        array_ids: data-structure id of each run (runs never span
            array-id changes).
    """

    keys: np.ndarray
    counts: np.ndarray
    array_ids: np.ndarray
    # Coalesced lookup view (see :meth:`lookup_view`): built eagerly by
    # :func:`compress_trace` and ``SimProcess.translate``, lazily for
    # hand-assembled traces.
    _lookup_keys: Optional[np.ndarray] = field(default=None, repr=False)
    _lookup_array_ids: Optional[np.ndarray] = field(default=None, repr=False)
    # Per-array access totals (see :meth:`access_totals`), same policy.
    _access_totals: Optional[np.ndarray] = field(default=None, repr=False)
    # The batch engine's checkpoints of its last full run over this
    # trace when read-only, as ``(hierarchy, checkpoints)`` (see
    # ``BatchTranslationHierarchy.simulate``).  Held here so that they
    # die with the trace.
    _checkpoints: Optional[tuple[Any, list]] = field(
        default=None, repr=False, compare=False
    )

    @property
    def total_accesses(self) -> int:
        """Number of represented accesses (sum of run lengths)."""
        return int(self.counts.sum())

    def __len__(self) -> int:
        return int(self.keys.size)

    def lookup_view(self) -> tuple[np.ndarray, np.ndarray]:
        """The trace with adjacent same-key runs coalesced — the only
        runs the TLB simulation loop must actually look up.

        Runs split on array-id changes even when the page key stays the
        same (two arrays sharing one huge page at a boundary), but every
        run after the first in such a group is a guaranteed L1 hit: the
        entry was installed or refreshed at MRU by the group's first
        run.  The simulation loop therefore only needs one lookup per
        *key group*; per-array access attribution stays exact because it
        is computed from the full run arrays, and the (potential) miss
        is attributed to the group's leading run — exactly what the
        uncoalesced loop did.

        Returns ``(keys, array_ids)`` of the group-leading runs.
        """
        if self._lookup_keys is None:
            self._lookup_keys, self._lookup_array_ids = _coalesce_lookups(
                self.keys, self.array_ids
            )
        assert self._lookup_array_ids is not None
        return self._lookup_keys, self._lookup_array_ids

    def access_totals(self) -> np.ndarray:
        """Accesses attributed per array id (length ``MAX_ARRAY_IDS``).

        A trace property, not a simulation result: attribution depends
        only on the run arrays, never on TLB state, so it is computed
        once at trace build time and shared by every engine that
        simulates the trace.
        """
        if self._access_totals is None:
            self._access_totals = _access_totals(self.array_ids, self.counts)
        return self._access_totals


def _access_totals(array_ids: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Per-array access totals of a trace assembled from runs directly
    (:func:`compress_trace` counts the raw ids instead).

    Run lengths are integers, so the float64 accumulation is exact
    (totals are far below 2**53).
    """
    if counts.size == 0:
        return np.zeros(MAX_ARRAY_IDS, dtype=np.int64)
    return np.bincount(
        array_ids, weights=counts, minlength=MAX_ARRAY_IDS
    ).astype(np.int64)


def _coalesce_lookups(
    keys: np.ndarray, array_ids: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Leading run of each adjacent same-key group (build-time helper)."""
    n = keys.size
    if n == 0:
        return keys, array_ids
    lead = np.empty(n, dtype=bool)
    lead[0] = True
    np.not_equal(keys[1:], keys[:-1], out=lead[1:])
    if bool(lead.all()):
        return keys, array_ids
    return keys[lead], array_ids[lead]


def trace_dtypes(max_key: int, accesses: int) -> tuple[type, type]:
    """The ``(keys, counts)`` dtypes of a trace whose largest page key
    is ``max_key`` and which represents ``accesses`` accesses: ``int32``
    where the values fit, ``int64`` otherwise.

    Keys stay signed even when they would fit 16 bits, so key arithmetic
    such as the profiler's ``(k >> 1) - start`` cannot wrap around.  No
    run is longer than the stream, so the stream's length bounds every
    count.
    """
    key = np.int32 if max_key < 1 << 31 else np.int64
    count = np.int32 if accesses < 1 << 31 else np.int64
    return key, count


def compress_trace(
    keys: np.ndarray,
    array_ids: np.ndarray,
    access_totals: Optional[np.ndarray] = None,
) -> TlbTrace:
    """Run-length encode a raw key sequence.

    Consecutive accesses to the same page (with the same array id) are
    collapsed into one run.  Sequential scans of an array compress by up
    to the page size over the element size; pointer-indirect traffic stays
    nearly uncompressed — which is exactly why it dominates TLB pressure.

    ``access_totals`` is ``np.bincount(array_ids, minlength=MAX_ARRAY_IDS)``
    when the caller already has it; it is computed otherwise.  Counting
    raw ids equals weighting runs by their lengths, because runs never
    span array ids.  Run keys and counts take :func:`trace_dtypes`.
    """
    if access_totals is None:
        access_totals = np.bincount(array_ids, minlength=MAX_ARRAY_IDS)
    access_totals = access_totals.astype(np.int64, copy=False)
    n = keys.size
    key_dtype, count_dtype = trace_dtypes(int(keys.max(initial=0)), n)
    if n == 0:
        return TlbTrace(
            np.empty(0, dtype=key_dtype),
            np.empty(0, dtype=count_dtype),
            np.empty(0, dtype=np.uint8),
            _access_totals=access_totals,
        )
    change = np.empty(n, dtype=bool)
    change[0] = True
    np.not_equal(keys[1:], keys[:-1], out=change[1:])
    change[1:] |= array_ids[1:] != array_ids[:-1]
    starts = np.flatnonzero(change)
    counts = np.diff(np.append(starts, n))
    run_keys = keys[starts].astype(key_dtype)
    run_array_ids = array_ids[starts].astype(np.uint8)
    run_counts = counts.astype(count_dtype)
    lookup_keys, lookup_array_ids = _coalesce_lookups(run_keys, run_array_ids)
    return TlbTrace(
        run_keys,
        run_counts,
        run_array_ids,
        lookup_keys,
        lookup_array_ids,
        access_totals,
    )
