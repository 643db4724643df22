"""Vectorized batch translation engine.

Drop-in replacement for :class:`~repro.tlb.hierarchy.TranslationHierarchy`
that processes a whole coalesced lookup stream with NumPy set-wise passes
instead of a per-lookup Python loop, producing *bit-identical*
``accesses`` / ``l1_misses`` / ``walks`` counts.

Why this is exact
-----------------

A true-LRU set is *outcome independent*: every access leaves its key at
MRU whether it hit or missed, so the set's content after any prefix is
simply the ``ways`` most-recently-used distinct keys mapping to it, and

    hit(t)  <=>  reuse distance of t  <  ways

where the reuse distance is the number of *distinct* same-set keys
between an access and the previous access ``P(t)`` to the same key.  The
same holds for the STLB over the sub-stream of L1 misses (the L2 is only
probed and updated on an L1 miss), so the hierarchy decomposes into two
independent passes: L1 hit/miss per structure, then L2 over the L1-miss
sub-stream.

Reuse distances are counted through the first-occurrence identity: the
number of distinct keys in the window ``(P(t), t)`` equals the number of
positions ``y`` inside it whose own previous occurrence lies at or
before ``P(t)`` — each distinct key is counted exactly once, at its
first in-window appearance.  That turns hit/miss into window *counts*
over the already-computed previous-occurrence array:

0. *repeat* (equal to the previous lookup in set-sorted order): always
   a hit — equal keys share a set, so the gap is 0 and the key is MRU.
   Each such run collapses to its head before anything below runs.
   That is exact: a repeat adds no distinct key to any later window
   (and distinct <= gap still holds, so step 2 stays sound), and it
   keeps each set's last-occurrence order, so the carried state is
   unchanged.  A batch's first key that equals its set's carried MRU
   key joins that key's warm-up run and hits, as it must.
1. *cold* (no previous occurrence): always a miss.
2. ``gap < ways`` (fewer than ``ways`` same-set lookups in between):
   a hit — the distinct count cannot reach ``ways``.
3. Everything else: in set-sorted coordinates each window is a
   contiguous slice, and position ``a + c`` is a first occurrence of a
   window starting at ``a`` iff its back-distance exceeds its depth,
   ``d[a + c] > c``.  A 1D column walk over the leading window
   columns counts short windows exactly, and a count reaching ``ways``
   in *any* subset of columns is a sound miss certificate for long
   windows (first occurrences only accumulate) — the dominant outcome
   in high-entropy streams.  The same count anchored at the window's
   *tail* is a mirror certificate; survivors go through geometrically
   widening matrix passes and the rare holdouts get exact per-query
   counts.

Cross-call state (the hierarchy is live across the workload's streams
and flushed on promotions) is carried by replaying each set's resident
keys, LRU-first, as uncounted warm-up lookups prepended to the batch.
Large batches are split into cache-sized chunks — exact under any
split, because the carried state replays between chunks.

A held (read-only) trace is simulated again on every iteration that
repeats its stream.  A structure's outcomes on the chunks after a
boundary depend only on its state at that boundary and on those
lookups, so once a run's states at a chunk boundary equal those an
earlier run over the same trace had there, the rest of the run is
known: its counts are the earlier run's remainder and its final state
is the earlier run's (:class:`_Checkpoint`).
"""

from __future__ import annotations

import os
import queue
import sys
import threading
from typing import NamedTuple

import numpy as np

from ..config import TlbConfig, TlbGeometry
from ..radix import stable_order
from .hierarchy import MAX_ARRAY_IDS, TranslationHierarchy, TranslationStats
from .trace import TlbTrace, compress_trace

_CHUNK = 1 << 17
"""Lookups per internal batch: large enough to amortize pass setup,
small enough that a chunk's working arrays stay cache-resident."""

_QUEUE_DEPTH = 2
"""Chunks of L1 misses the L1 stage may run ahead of the STLB stage."""


def _inline_chunks(processes: int = 1) -> int:
    """Stream length, in chunks, up to which the STLB stage runs inline.

    Streams of up to ten chunks on the ``scaled`` geometry (every stream
    of perfbench ``tournament`` and ``oneshot``) ran 5% slower pipelined,
    so only streams longer than 16 chunks get the thread.  Without a CPU
    to spare per process none do: pinned to one CPU, perfbench
    ``scale-1m`` ran 14% slower pipelined (docs/performance.md)."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:  # no affinity mask outside Linux
        cpus = os.cpu_count() or 1
    return 16 if cpus // processes > 1 else sys.maxsize


_INLINE_CHUNKS = _inline_chunks()
"""Streams of at most this many chunks run the STLB stage inline on
the calling thread; longer ones pipeline it on a second thread."""


def share_cpus(processes: int) -> None:
    """Declare this process one of ``processes`` that keep the same CPUs
    busy (the lease workers of a local batch): the STLB stage runs
    pipelined only if each of them still has a CPU to spare."""
    global _INLINE_CHUNKS
    _INLINE_CHUNKS = _inline_chunks(processes)


_iota_cache = np.empty(0, dtype=np.int32)


def _iota(n: int) -> np.ndarray:
    """Cached ``arange(n, dtype=int32)`` view (read-only use only).

    Both pipeline stages call it: the cache is read once into a local,
    so a concurrent rebind can only cost an extra allocation."""
    global _iota_cache
    cache = _iota_cache
    if cache.size < n:
        cache = _iota_cache = np.arange(
            max(n, _CHUNK + 8192), dtype=np.int32
        )
    return cache[:n]


class _BatchLru:
    """One set-associative structure simulated batch-at-a-time.

    ``key_shift``/``num_sets`` let a caller re-index the set bits: the
    default drops the page-size parity bit (``key >> 1``) like the
    exact structures do, while ``key_shift=0`` with doubled sets folds
    the parity bit *into* the set index — two identical-geometry L1s
    fused into one structure whose sets never interact.
    """

    def __init__(
        self,
        geometry: TlbGeometry,
        *,
        num_sets: int | None = None,
        key_shift: int = 1,
    ) -> None:
        self.geometry = geometry
        self.ways = geometry.ways
        self.num_sets = geometry.sets if num_sets is None else num_sets
        self.key_shift = key_shift
        self.set_mask = self.num_sets - 1
        # Per-set resident keys carried between batches as one flat
        # array: set-major ascending, LRU-first within each set — the
        # exact layout the warm-up prepend needs.  This is the whole
        # state, and it is only ever rebound, never written in place,
        # so a snapshot can share it.
        self.state_keys = np.empty(0, dtype=np.int64)
        # Window-count buckets: smallest matrix width, and the widest
        # before queries fall back to per-query counting.  The first
        # bucket also serves as the long-window miss-certificate width.
        self.cap0 = max(16, 2 * self.ways)
        self.cap_max = 64 * self.cap0

    def flush(self) -> None:
        self.state_keys = np.empty(0, dtype=np.int64)

    def simulate(self, keys: np.ndarray) -> np.ndarray:
        """Return the boolean miss mask for ``keys`` (program order),
        updating carried per-set state exactly as sequential true-LRU
        access/insert would.

        Large batches are processed in cache-sized chunks: the engine
        is exact under any batch split (carried state replays each
        set's residents), chunked passes stay in cache instead of
        thrashing DRAM with multi-million-element scatters, and reuse
        windows are bounded by the chunk — a key evicted before a chunk
        boundary simply restarts cold, which is the same miss the full
        window would have produced.
        """
        n = keys.size
        if n > _CHUNK + (_CHUNK >> 1):
            out = np.empty(n, dtype=bool)
            for lo in range(0, n, _CHUNK):
                hi = min(n, lo + _CHUNK)
                out[lo:hi] = self._simulate_batch(keys[lo:hi])
            return out
        return self._simulate_batch(keys)

    def _simulate_batch(self, keys: np.ndarray) -> np.ndarray:
        n = keys.size
        if n == 0:
            return np.zeros(0, dtype=bool)
        ways = self.ways
        m0 = self.state_keys.size
        if m0:
            # Mixed-dtype concatenate promotes, so carried keys can
            # never be truncated by a narrower incoming batch.
            allk = np.concatenate([self.state_keys, keys])
        else:
            allk = keys
        mx = int(allk.max())
        if mx < 1 << 16:
            if allk.dtype != np.uint16:
                allk = allk.astype(np.uint16)
        elif mx < 1 << 31 and allk.dtype != np.int32:
            allk = allk.astype(np.int32)
        total = allk.size

        sidx = ((allk >> self.key_shift) & self.set_mask).astype(
            np.uint16
        )
        set_order = np.argsort(sidx, kind="stable")
        set_counts = np.bincount(sidx, minlength=self.num_sets)
        seg_start = np.concatenate(([0], np.cumsum(set_counts)))

        # Set-sorted layout: contiguous per-set subsequences, so every
        # reuse window is a contiguous slice and position differences
        # within a segment count intervening same-set lookups directly
        # (no per-segment rank needed).
        keys_ss = allk[set_order]

        # Collapse each run of equal consecutive keys to its head (step
        # 0 of the module docstring): a repeat is an MRU hit, and
        # dropping it changes no later window's distinct count.  A
        # segment's first position always differs from the previous
        # segment's key, so it is a head and seg_start maps over by
        # rank.
        head = np.empty(total, dtype=bool)
        head[0] = True
        np.not_equal(keys_ss[1:], keys_ss[:-1], out=head[1:])
        heads = np.flatnonzero(head)
        nh = heads.size
        if nh < total:
            keys_h = keys_ss[heads]
            seg_h = np.searchsorted(heads, seg_start)
        else:
            keys_h = keys_ss
            seg_h = seg_start

        # Previous occurrence of the same key, in set-sorted head
        # coordinates: same key => same set, so one stable key sort of
        # the set-sorted heads pairs consecutive occurrences.
        key_order = stable_order(keys_h)
        sk = keys_h[key_order]
        dup = np.flatnonzero(sk[1:] == sk[:-1])
        prev_pos = np.full(nh, -1, dtype=np.int32)
        if dup.size:
            prev_pos[key_order[dup + 1]] = key_order[dup]

        # d = back-distance to the same key's previous occurrence; a
        # cold position's d reaches past the segment start, so it
        # qualifies at any window depth (as a first occurrence must).
        d_ss = _iota(nh) - prev_pos
        cold = prev_pos < 0
        gap = d_ss - 1  # intervening same-set lookups
        miss_h = cold.copy()  # cold => miss; hits need no write
        undecided = np.flatnonzero(~cold & (gap >= ways))
        if undecided.size:
            miss_h[undecided] = self._resolve_windows(
                d_ss, gap[undecided], starts=prev_pos[undecided] + 1
            )

        # Batch-final occurrence of each distinct key: everything the
        # key sort already paired as having a later duplicate is not
        # one.  Sorted positions, so per-set residents are slices.
        last = np.ones(nh, dtype=bool)
        last[key_order[dup]] = False
        self._extract_state(keys_h, np.flatnonzero(last), seg_h)

        if nh < total:
            miss_ss = np.zeros(total, dtype=bool)  # repeats hit
            miss_ss[heads] = miss_h
        else:
            miss_ss = miss_h
        miss = np.empty(total, dtype=bool)
        miss[set_order] = miss_ss
        return miss[m0:]

    def _resolve_windows(
        self,
        d_ss: np.ndarray,
        gaps: np.ndarray,
        starts: np.ndarray,
    ) -> np.ndarray:
        """Exactly decide hit/miss for lookups whose gap reaches the
        associativity, by counting distinct keys in their reuse windows
        (module docstring, steps 3-4).

        Every count reduces to one comparison form: position ``a + c``
        is the first occurrence of its key within a window starting at
        ``a`` iff its back-distance exceeds its depth, ``d > c``.  So a
        pass is a gather of the static ``d`` array plus a broadcast
        compare against ``arange(cap)`` — no per-query thresholds.
        Anchoring ``a`` at a *tail* of the window counts that
        sub-window's distinct keys, a mirror-image miss certificate.
        """
        ways = self.ways
        nq = gaps.size
        miss_out = np.zeros(nq, dtype=bool)

        # Leading-run pass: count just the first `ways` window columns
        # with plain 1D gathers — every window has at least that many
        # columns (gap >= ways here), so no mask, no matrix, and no
        # padding; column 0 always qualifies (d >= 1).  All-distinct
        # certifies a miss outright (the dominant case in high-entropy
        # streams), and gap == ways windows are decided exactly.
        if ways <= 16:
            cnt = np.ones(nq, dtype=np.uint8)
            idx = starts.copy()
            for c in range(1, ways):
                idx += 1
                cnt += d_ss[idx] > c
            certA = cnt >= ways
            miss_out[certA] = True
            done = certA | (gaps == ways)
            if bool(done.all()):
                return miss_out
            # Second tier: continue the column walk to 2*ways on the
            # survivors only.  These columns can fall past a short
            # window's end, so the depth test gains a gap mask (the pad
            # keeps the gather in bounds); a window of <= 2*ways
            # columns is now fully counted, and reaching `ways` still
            # certifies any longer window.
            pad = np.concatenate(
                (d_ss, np.zeros(self.cap_max, dtype=d_ss.dtype))
            )
            sel = np.flatnonzero(~done)
            scnt = cnt[sel].astype(np.int32)
            sgaps = gaps[sel]
            idx = starts[sel] + ways
            for c in range(ways, 2 * ways):
                scnt += (pad[idx] > c) & (c < sgaps)
                idx += 1
            sub = scnt >= ways
            miss_out[sel[sub]] = True
            done[sel] = sub | (sgaps <= 2 * ways)
        else:
            pad = np.concatenate(
                (d_ss, np.zeros(self.cap_max, dtype=d_ss.dtype))
            )
            done = np.zeros(nq, dtype=bool)
        if bool(done.all()):
            return miss_out

        # Matrix pass over the survivors: exact for short windows; for
        # longer ones a count already at `ways` is a sound miss
        # certificate (first occurrences only accumulate as the window
        # widens).  Pad keeps start + cap in bounds; the pad value 0
        # never exceeds a column offset.
        sel = np.flatnonzero(~done)
        cols = np.arange(self.cap0, dtype=np.int32)
        quals = (pad[starts[sel][:, None] + cols] > cols) & (
            cols[None, :] < gaps[sel][:, None]
        )
        is_miss = np.count_nonzero(quals, axis=1) >= ways
        miss_out[sel] = is_miss
        done[sel] = is_miss | (gaps[sel] <= self.cap0)

        if not bool(done.all()):
            # Mirror certificate: distinct keys bunched just before the
            # access (a burst after a long monotone run) escape the
            # prefix but not the tail sub-window.  Survivors have
            # gap > cap0, so the tail lies in-window: no mask, no pad.
            sel = np.flatnonzero(~done)
            anchor = starts[sel] + gaps[sel] - self.cap0
            tail = d_ss[anchor[:, None] + cols] > cols
            cert_idx = sel[np.count_nonzero(tail, axis=1) >= ways]
            miss_out[cert_idx] = True
            done[cert_idx] = True

        cap = self.cap0 * 4
        while cap <= self.cap_max:
            sel = np.flatnonzero(~done)
            if sel.size == 0:
                break
            cols = np.arange(cap, dtype=np.int32)
            quals = (pad[starts[sel][:, None] + cols] > cols) & (
                cols[None, :] < gaps[sel][:, None]
            )
            is_miss = np.count_nonzero(quals, axis=1) >= ways
            miss_out[sel] = is_miss
            done[sel] = is_miss | (gaps[sel] <= cap)
            cap *= 4
        # Survivors: very long windows dominated by re-references to a
        # few hot keys.  Count each outright; qualification is still
        # just distance-vs-depth.
        rest = np.flatnonzero(~done)
        if rest.size:
            iota = np.arange(int(gaps[rest].max()), dtype=d_ss.dtype)
            for i in rest:
                window = d_ss[starts[i] : starts[i] + gaps[i]]
                miss_out[i] = (
                    int(np.count_nonzero(window > iota[: window.size]))
                    >= ways
                )
        return miss_out

    # -- carried state ----------------------------------------------

    def _extract_state(
        self,
        keys_ss: np.ndarray,
        last_pos: np.ndarray,
        seg_start: np.ndarray,
    ) -> None:
        """Recover each set's resident keys: the content of a true-LRU
        set is its `ways` most recently used distinct keys — the
        highest-positioned batch-final occurrences in its segment.

        ``last_pos`` holds every batch-final occurrence position in
        ascending order, so each segment's residents are one slice
        (ascending position = LRU-first, the carried-state layout).
        Warm-up replay re-injects every carried key, so a set absent
        from the batch genuinely holds nothing.
        """
        ways = self.ways
        bounds = np.searchsorted(last_pos, seg_start)
        cnt = np.minimum(bounds[1:] - bounds[:-1], ways)
        total = int(cnt.sum())
        offs = np.cumsum(cnt) - cnt
        r = np.arange(total, dtype=np.int64) - np.repeat(offs, cnt)
        take = last_pos[np.repeat(bounds[1:] - cnt, cnt) + r]
        self.state_keys = keys_ss[take].astype(np.int64)


class _Checkpoint(NamedTuple):
    """A run over a read-only trace at the boundary after one chunk.

    ``states`` references the carried arrays, which are only ever
    rebound, so a checkpoint copies nothing but the two count arrays.
    """

    states: tuple[np.ndarray, ...]
    """Each L1 structure's ``state_keys``, then the STLB's."""
    l1_misses: np.ndarray
    """Per-array L1 misses through this chunk."""
    walks: np.ndarray
    """Per-array walks through this chunk."""


def _same_states(
    a: tuple[np.ndarray, ...], b: tuple[np.ndarray, ...]
) -> bool:
    return all(x is y or np.array_equal(x, y) for x, y in zip(a, b))


class BatchTranslationHierarchy:
    """Split L1 DTLB + unified STLB over batched NumPy passes.

    Interface-compatible with
    :class:`~repro.tlb.hierarchy.TranslationHierarchy` for everything
    the machine uses (``simulate`` / ``flush`` / ``tracer``) and
    produces bit-identical :class:`TranslationStats`.
    """

    engine = "batch"

    def __init__(self, config: TlbConfig) -> None:
        self.config = config
        if config.l1_base == config.l1_huge:
            # Identical L1 geometries: the parity bit can serve as an
            # extra set-index bit instead of a structure selector —
            # one fused structure with doubled sets behaves exactly
            # like the two split L1s (sets never interact), and the
            # per-chunk parity partition disappears entirely.
            self.l1_fused = _BatchLru(
                config.l1_base,
                num_sets=2 * config.l1_base.sets,
                key_shift=0,
            )
            self.l1_base = self.l1_huge = None
            self._l1_structures = (self.l1_fused,)
        else:
            self.l1_fused = None
            self.l1_base = _BatchLru(config.l1_base)
            self.l1_huge = _BatchLru(config.l1_huge)
            self._l1_structures = (self.l1_base, self.l1_huge)
        self.l2 = _BatchLru(config.l2)
        self.tracer = None
        self._stream = 0
        # Chunks whose outcome a converged run took from its checkpoints
        # instead of simulating them.
        self.chunks_replayed = 0

    def flush(self) -> None:
        """Full shootdown of every level."""
        for structure in self._l1_structures:
            structure.flush()
        self.l2.flush()

    def snapshot(self) -> tuple[np.ndarray, ...]:
        """The LRU contents of every level.  The carried arrays are
        rebound, never written in place, so the snapshot shares them;
        marking them read-only turns a violation into an error."""
        state = tuple(
            structure.state_keys
            for structure in (*self._l1_structures, self.l2)
        )
        for keys in state:
            keys.flags.writeable = False
        return state

    def restore(self, state: tuple[np.ndarray, ...]) -> None:
        """Reinstate a :meth:`snapshot` (stream counters untouched)."""
        for structure, keys in zip(
            (*self._l1_structures, self.l2), state, strict=True
        ):
            structure.state_keys = keys

    emit_stream = TranslationHierarchy.emit_stream

    def _l1_groups(
        self, dk: np.ndarray
    ) -> tuple[tuple[_BatchLru, np.ndarray], ...]:
        """Distinct keys routed to their L1 structure."""
        if self.l1_fused is not None:
            return ((self.l1_fused, dk),)
        parity = (dk & 1) != 0
        return (
            (self.l1_base, dk[~parity]),
            (self.l1_huge, dk[parity]),
        )

    def _l1_closed(self, seen: np.ndarray, base: int) -> bool:
        """True if every L1 set's distinct keys fit within its ways."""
        dk = np.flatnonzero(seen) + base
        for structure, keys in self._l1_groups(dk):
            if keys.size == 0:
                continue
            sets = (keys >> structure.key_shift) & structure.set_mask
            counts = np.bincount(sets, minlength=structure.num_sets)
            if int(counts.max()) > structure.ways:
                return False
        return True

    def _closed_l1_decide(
        self, lk: np.ndarray, kmax: int
    ) -> "np.ndarray | None":
        """Whole-stream closed-sets fast path.

        If every L1 set's distinct keys — carried residents included —
        fit within its associativity, no L1 eviction can ever occur:
        once a key is resident it stays resident, so the only misses
        are the first occurrences of keys not already carried.  That
        reduces the entire L1 simulation to a few streaming passes over
        key-indexed tables — no sorting, no page-size partition (keys
        are unique across size classes, so one table serves both L1s).
        This is the regime huge-page-backed placements produce: a
        handful of distinct pages under constant ping-pong reuse.

        Small keys index the tables directly; otherwise the stream is
        rebased by its minimum key, which works whenever the key *span*
        fits a 2^16-entry table (page keys cluster within the process's
        mapped range, so huge-page streams qualify even on machines
        whose absolute page numbers are large).

        Returns the sorted positions of the L1 misses (first
        occurrences of non-carried keys, in program order), or None
        when any set can overflow — those streams go to the chunked
        engine.
        """
        state0 = [s.state_keys for s in self._l1_structures]
        hi = kmax
        for a in state0:
            if a.size:
                hi = max(hi, int(a.max()))
        if hi < (1 << 16):
            base = 0
            size = hi + 1
        else:
            lo = int(lk.min())
            for a in state0:
                if a.size:
                    lo = min(lo, int(a.min()))
            if hi - lo < (1 << 16):
                base = lo
                size = 1 << 16
            elif hi < (1 << 24):
                # Wide span but small absolute keys: a direct-indexed
                # table (≤16M entries) beats declining the fast path.
                base = 0
                size = hi + 1
            else:
                return None
        seen = np.zeros(size, dtype=bool)
        for a in state0:
            seen[a - base] = True
        # Screen on a short prefix first: open streams overflow their
        # sets within a few thousand lookups, long before a full-stream
        # table pass is worth paying for.
        pre = lk[: 1 << 14]
        seen[pre if base == 0 else np.subtract(pre, base, dtype=np.intp)] = (
            True
        )
        if not self._l1_closed(seen, base):
            return None
        idx = lk if base == 0 else np.subtract(lk, base, dtype=np.intp)
        seen[idx] = True
        if not self._l1_closed(seen, base):
            return None

        n = lk.size
        pos = np.full(size, -1, dtype=np.int32)
        pos[idx[::-1]] = _iota(n)[::-1]  # first occurrence wins
        # Carried keys are resident throughout, so they can never be a
        # counted first occurrence — mark them after the scatter so a
        # recurring carried key cannot reclaim a position.
        for a in state0:
            pos[a - base] = -2
        dkidx = np.flatnonzero(seen)
        fp = pos[dkidx]
        fp = fp[fp >= 0]
        fp.sort()  # program order; one miss per non-carried key

        # Exit state per structure: all of its distinct keys (nothing
        # was evicted), ordered by last access; carried keys never
        # re-accessed stay oldest, in carried order.
        for a in state0:
            pos[a - base] = np.arange(-a.size, 0, dtype=np.int32)
        pos[idx] = _iota(n)  # last occurrence wins
        dk = dkidx + base
        for structure, keys in self._l1_groups(dk):
            sets = (keys >> structure.key_shift) & structure.set_mask
            lp = pos[keys - base]
            order = np.argsort(lp, kind="stable")
            order = order[np.argsort(sets[order], kind="stable")]
            structure.state_keys = keys[order].astype(np.int64)
        return fp

    def simulate(self, trace: TlbTrace, stats: TranslationStats) -> None:
        """Run a compressed trace through the hierarchy, updating
        ``stats`` in place (same contract, and same resulting counts,
        as the exact simulator's loop).

        Streams whose L1 working set provably fits (huge-page-backed
        cells) are decided in one whole-stream pass; everything else
        runs chunk by chunk — page-size split, L1 probes, L2 over the
        L1-miss sub-stream, per-array attribution — so every
        intermediate array stays cache-resident, with LRU state carried
        across chunks exactly.

        On streams longer than :data:`_INLINE_CHUNKS` chunks the STLB
        stage runs pipelined: the calling thread runs the L1 over chunk
        *i+1* while one worker thread runs the STLB and the walk
        attribution over chunk *i*'s L1 misses, handed over in order
        through a bounded queue.  The STLB sees exactly the L1-miss
        sub-stream, in program order, so the counts are unchanged; the
        worker alone touches ``self.l2`` until it is joined, which
        happens before anything reads the results.

        A read-only trace (a stream the process holds and hands out
        again, ``SimProcess.translate``) gets a :class:`_Checkpoint` at
        every chunk boundary, taken by the STLB stage after its pass:
        the L1 stage sends each chunk's L1 state along with its misses,
        even when there are none.  A run that simulates every chunk
        leaves its checkpoints on the trace.  The next run of this
        hierarchy over the trace compares its states with them at each
        boundary; at the first match it stops (the L1 stage at its next
        chunk, discarding any run-ahead counts), adds the recorded
        remainder of the counts and takes the recorded final state.
        """
        stats.accesses += trace.access_totals()
        lookup_keys, lookup_array_ids = trace.lookup_view()
        n = lookup_keys.size

        l1m = np.zeros(MAX_ARRAY_IDS, dtype=np.int64)
        wlk = np.zeros(MAX_ARRAY_IDS, dtype=np.int64)
        # Checkpoints of this run, and the record it replays from: only
        # for read-only traces, which nobody can change between runs.
        history: "list[_Checkpoint] | None" = None
        record: "list[_Checkpoint] | None" = None
        converged: list[int] = []

        def stlb_stage(
            miss_keys: np.ndarray,
            miss_aids: np.ndarray,
            l1_state: "tuple[np.ndarray, ...] | None" = None,
            l1m_now: "np.ndarray | None" = None,
        ) -> None:
            if miss_keys.size:
                walk_mask = self.l2.simulate(miss_keys)
                if bool(walk_mask.any()):
                    np.add(
                        wlk,
                        np.bincount(
                            miss_aids[walk_mask], minlength=MAX_ARRAY_IDS
                        ),
                        out=wlk,
                    )
            if l1_state is None:
                return
            assert history is not None and l1m_now is not None
            states = (*l1_state, self.l2.state_keys)
            i = len(history)
            history.append(_Checkpoint(states, l1m_now, wlk.copy()))
            if (
                record is not None
                and i < len(record) - 1
                and _same_states(states, record[i].states)
            ):
                converged.append(i)

        fp = None
        if n:
            kmax = int(lookup_keys.max())
            # Closed-sets fast path first, on the un-downcast keys: its
            # table passes index with the stream directly, so a narrow
            # dtype would only add hidden intp casts.
            fp = self._closed_l1_decide(lookup_keys, kmax)
        if fp is not None:
            if fp.size:
                miss_aids = lookup_array_ids[fp]
                l1m += np.bincount(miss_aids, minlength=MAX_ARRAY_IDS)
                stlb_stage(lookup_keys[fp], miss_aids)
            n = 0  # chunk loop skipped
        elif n:
            if not lookup_keys.flags.writeable:
                history = []
                held = trace._checkpoints
                if held is not None and held[0] is self:
                    record = held[1]
            if kmax < 1 << 16 and lookup_keys.dtype != np.uint16:
                lookup_keys = lookup_keys.astype(np.uint16)
            elif (
                kmax < 1 << 31
                and lookup_keys.dtype.itemsize > 4
            ):
                lookup_keys = lookup_keys.astype(np.int32)

        handoff: "queue.Queue | None" = None
        failed: list[BaseException] = []
        if n > _INLINE_CHUNKS * _CHUNK:
            handoff = queue.Queue(maxsize=_QUEUE_DEPTH)

            def drain(chunks: queue.Queue) -> None:
                # Keep taking chunks after a failure or convergence, so
                # the caller can never block on a full queue; only the
                # sentinel ends it.  Any exception is kept: the caller
                # re-raises it.
                while (item := chunks.get()) is not None:
                    if not failed and not converged:
                        try:
                            stlb_stage(*item)
                        except BaseException as exc:
                            failed.append(exc)

            # A daemon: should an interrupt cut off the sentinel, the
            # thread cannot hold up interpreter exit.  Every other path
            # sends the sentinel and joins it below.
            worker = threading.Thread(
                target=drain, args=(handoff,), name="stlb-stage", daemon=True
            )
            worker.start()
        try:
            for lo in range(0, n, _CHUNK):
                if failed or converged:
                    break
                keys = lookup_keys[lo : lo + _CHUNK]
                aids = lookup_array_ids[lo : lo + _CHUNK]
                if self.l1_fused is not None:
                    miss = self.l1_fused.simulate(keys)
                else:
                    huge = (keys & 1) != 0
                    miss = np.empty(keys.size, dtype=bool)
                    for structure, mask in (
                        (self.l1_base, ~huge),
                        (self.l1_huge, huge),
                    ):
                        if bool(mask.any()):
                            miss[mask] = structure.simulate(keys[mask])
                miss_aids = aids[miss]
                if miss_aids.size:
                    l1m += np.bincount(miss_aids, minlength=MAX_ARRAY_IDS)
                elif history is None:
                    continue
                item: tuple = (keys[miss], miss_aids)
                if history is not None:
                    item += (
                        tuple(s.state_keys for s in self._l1_structures),
                        l1m.copy(),
                    )
                if handoff is None:
                    stlb_stage(*item)
                else:
                    handoff.put(item)
        finally:
            if handoff is not None:
                handoff.put(None)
                worker.join()
        if failed:
            raise failed[0]
        if converged:
            assert history is not None and record is not None
            j = converged[0]
            final = record[-1]
            l1m = history[j].l1_misses + final.l1_misses - record[j].l1_misses
            wlk = history[j].walks + final.walks - record[j].walks
            self.restore(final.states)
            self.chunks_replayed += len(record) - 1 - j
        elif history is not None:
            trace._checkpoints = (self, history)
        stats.l1_misses += l1m
        stats.walks += wlk

        self.emit_stream(
            int(trace.counts.sum()) if trace.counts.size else 0,
            int(l1m.sum()),
            int(wlk.sum()),
        )

# ----------------------------------------------------------------------
# Engine selection
# ----------------------------------------------------------------------

TLB_ENGINES = ("exact", "batch", "auto")

_auto_cache: dict[tuple, bool] = {}


def _probe_trace(config: TlbConfig, seed: int = 20220904) -> TlbTrace:
    """Deterministic probe exercising both page-size classes, set
    aliasing, capacity churn and ping-pong reuse."""
    rng = np.random.default_rng(seed)
    span = 4 * config.l2.entries
    pages = rng.integers(0, max(span, 8), size=4096)
    size_class = (rng.random(4096) < 0.25).astype(np.int64)
    keys = (pages << 1) | size_class
    hot = keys[: 8 * max(config.l1_base.ways, 1)]
    keys[rng.integers(0, keys.size, size=keys.size // 3)] = hot[
        rng.integers(0, hot.size, size=keys.size // 3)
    ]
    array_ids = rng.integers(0, 4, size=keys.size).astype(np.uint8)
    return compress_trace(keys, array_ids)


def batch_engine_matches(config: TlbConfig) -> bool:
    """Self-check: run the probe trace through both engines (split in
    two batches, re-run with a flush in between) and compare counts.
    Cached per TLB geometry."""
    cache_key = (
        config.l1_base.entries,
        config.l1_base.ways,
        config.l1_huge.entries,
        config.l1_huge.ways,
        config.l2.entries,
        config.l2.ways,
    )
    hit = _auto_cache.get(cache_key)
    if hit is not None:
        return hit
    trace = _probe_trace(config)
    half = trace.keys.size // 2
    parts = [
        TlbTrace(
            trace.keys[:half],
            trace.counts[:half],
            trace.array_ids[:half],
        ),
        TlbTrace(
            trace.keys[half:],
            trace.counts[half:],
            trace.array_ids[half:],
        ),
    ]
    exact = TranslationHierarchy(config)
    batch = BatchTranslationHierarchy(config)
    ok = True
    for flush_between in (False, True):
        s_exact = TranslationStats()
        s_batch = TranslationStats()
        for part in parts:
            exact.simulate(part, s_exact)
            batch.simulate(part, s_batch)
            if flush_between:
                exact.flush()
                batch.flush()
        ok = ok and (
            np.array_equal(s_exact.accesses, s_batch.accesses)
            and np.array_equal(s_exact.l1_misses, s_batch.l1_misses)
            and np.array_equal(s_exact.walks, s_batch.walks)
        )
    _auto_cache[cache_key] = ok
    return ok


def make_hierarchy(
    engine: str, config: TlbConfig
) -> "TranslationHierarchy | BatchTranslationHierarchy":
    """Build the requested translation engine.

    ``auto`` selects the batch engine after a one-time equivalence
    self-check against the exact simulator on a probe trace, falling
    back to ``exact`` if the check fails (counts must never drift).
    """
    if engine == "exact":
        return TranslationHierarchy(config)
    if engine == "batch":
        return BatchTranslationHierarchy(config)
    if engine == "auto":
        if batch_engine_matches(config):
            return BatchTranslationHierarchy(config)
        return TranslationHierarchy(config)
    raise ValueError(
        f"unknown tlb engine {engine!r}; expected one of {TLB_ENGINES}"
    )
