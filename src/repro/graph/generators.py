"""Synthetic graph generators.

The paper evaluates one synthetic power-law network (Kronecker, the
Graph500 generator) and three real crawls (Twitter, Sd1 Arc, Wikipedia).
The real datasets are not redistributable at simulator scale, so
:func:`power_law_graph` produces structurally analogous networks with two
knobs the paper's analysis turns on:

- **popularity skew** (``alpha``): the in-degree power law that creates
  "hot" vertices with highly-reused property entries (§5.1.1);
- **community structure** (``community_fraction``): how much traffic stays
  inside blocks of *nearby vertex ids*.  Real social/web graphs "naturally
  have hot vertices in close proximity to one another" (§5.2), which is
  why DBG barely changes them, whereas Kronecker ids carry no locality
  (we shuffle labels, as Graph500 does) and DBG helps a lot.

All generators are deterministic given a seed.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import GraphError
from .csr import CsrGraph


_RMAT_CHUNK = 1 << 16
"""Edges per R-MAT draw chunk: a chunk's doubles, compare masks and id
words stay cache-resident while a level is folded into the ids."""


def _check_sizes(num_vertices: int, num_edges: int) -> None:
    """Reject counts no graph can have (before numpy fails obscurely)."""
    if num_vertices < 0 or num_edges < 0:
        raise GraphError("vertex and edge counts must be non-negative")
    if num_edges and not num_vertices:
        raise GraphError("edges need at least one vertex")


def _weights(rng: np.random.Generator, count: int) -> np.ndarray:
    """Positive integer edge weights for SSSP (1..63)."""
    return rng.integers(1, 64, size=count, dtype=np.int64)


def rmat_graph(
    scale: int,
    num_edges: int,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    seed: int = 1,
    shuffle_labels: bool = True,
    weighted: bool = False,
) -> CsrGraph:
    """R-MAT / Kronecker generator (Graph500 parameters by default).

    Each edge picks one quadrant per recursion level with probabilities
    (a, b, c, d = 1-a-b-c).  With ``shuffle_labels`` the vertex ids are
    randomly permuted afterwards — as the Graph500 specification requires
    — which destroys any id-space locality and makes Kronecker the
    "no community structure" case of the paper.

    Args:
        scale: log2 of the number of vertices.
        num_edges: number of directed edges to sample.
        a, b, c: R-MAT quadrant probabilities (d is implied).
        seed: RNG seed.
        shuffle_labels: permute vertex ids after generation.
        weighted: attach a values array of random weights.
    """
    d = 1.0 - a - b - c
    if min(a, b, c, d) < 0:
        raise GraphError("R-MAT probabilities must be non-negative")
    if not 0 <= scale <= 31:
        raise GraphError("R-MAT scale must be in 0..31 (uint32 ids)")
    num_vertices = 1 << scale
    _check_sizes(num_vertices, num_edges)
    rng = np.random.default_rng(seed)
    src, dst = _rmat_ids(rng, scale, num_edges, a, a + b, a + b + c)
    if shuffle_labels:
        perm = rng.permutation(num_vertices).astype(np.uint32)
        src = perm[src]
        dst = perm[dst]
    weights = _weights(rng, num_edges) if weighted else None
    return CsrGraph.from_edges(src, dst, num_vertices, weights=weights)


def _rmat_ids(
    rng: np.random.Generator,
    scale: int,
    num_edges: int,
    a: float,
    ab: float,
    abc: float,
) -> tuple[np.ndarray, np.ndarray]:
    """The ``uint32`` source and destination ids of every R-MAT edge.

    Level ``bit`` draws one double per edge, in edge order, a chunk at a
    time into one reused buffer — the same doubles a single
    ``rng.random(num_edges)`` returns, so the stream is unchanged.
    Quadrants in CDF order are a (0,0), b (0,1), c (1,0), d (1,1), and
    the thresholds ``a <= ab <= abc`` are cleared in order: with ``k``
    of them cleared, the source bit is ``k >= 2`` (``r >= ab``) and the
    destination bit is the parity of ``k``.
    """
    src = np.zeros(num_edges, dtype=np.uint32)
    dst = np.zeros(num_edges, dtype=np.uint32)
    size = min(_RMAT_CHUNK, num_edges)
    buffers = (
        np.empty(size),
        np.empty(size, dtype=bool),
        np.empty(size, dtype=bool),
        np.empty(size, dtype=bool),
        np.empty(size, dtype=np.uint32),
    )
    for bit in range(scale):
        one = np.uint32(1 << bit)
        for lo in range(0, num_edges, _RMAT_CHUNK):
            hi = min(lo + _RMAT_CHUNK, num_edges)
            r, ge_a, ge_ab, ge_abc, word = (buf[: hi - lo] for buf in buffers)
            rng.random(out=r)
            np.greater_equal(r, a, out=ge_a)
            np.greater_equal(r, ab, out=ge_ab)
            np.greater_equal(r, abc, out=ge_abc)
            np.multiply(ge_ab, one, out=word)
            np.bitwise_or(src[lo:hi], word, out=src[lo:hi])
            np.bitwise_xor(ge_a, ge_ab, out=ge_a)
            np.bitwise_xor(ge_a, ge_abc, out=ge_a)
            np.multiply(ge_a, one, out=word)
            np.bitwise_or(dst[lo:hi], word, out=dst[lo:hi])
    return src, dst


def power_law_graph(
    num_vertices: int,
    num_edges: int,
    alpha: float = 0.9,
    community_fraction: float = 0.0,
    community_size: int = 4096,
    hub_shuffle: float = 0.0,
    seed: int = 1,
    weighted: bool = False,
) -> CsrGraph:
    """Power-law network with tunable community structure.

    Destinations are drawn from a Zipf-like popularity distribution
    ``p(v) ∝ (v + 10)^-alpha`` so low-id vertices are hot hubs — matching
    crawl orderings where popular pages/users were discovered first.  A
    ``community_fraction`` of edges instead stays within the source's
    id-block of ``community_size`` vertices (with the block's own local
    hub skew), producing the spatial locality of real web graphs.

    ``hub_shuffle`` (0..1) randomly relocates that fraction of vertices in
    the id space, degrading the natural hot-vertex proximity — use 1.0 to
    emulate a fully shuffled crawl.

    Args:
        num_vertices: V.
        num_edges: E (directed).
        alpha: popularity skew exponent (larger = hotter hubs).
        community_fraction: fraction of edges kept inside id-blocks.
        community_size: block width in vertex ids.
        hub_shuffle: fraction of ids randomly permuted afterwards.
        seed: RNG seed.
        weighted: attach a values array of random weights.
    """
    if not 0.0 <= community_fraction <= 1.0:
        raise GraphError("community_fraction must be in [0, 1]")
    if not 0.0 <= hub_shuffle <= 1.0:
        raise GraphError("hub_shuffle must be in [0, 1]")
    _check_sizes(num_vertices, num_edges)
    if not num_vertices:
        raise GraphError("a power-law graph needs at least one vertex")
    rng = np.random.default_rng(seed)
    popularity = 1.0 / np.power(
        np.arange(num_vertices, dtype=np.float64) + 10.0, alpha
    )
    cdf = np.cumsum(popularity)
    cdf /= cdf[-1]

    src = rng.integers(0, num_vertices, size=num_edges, dtype=np.int64)
    dst = np.searchsorted(cdf, rng.random(num_edges)).astype(np.int64)
    dst = np.minimum(dst, num_vertices - 1)

    if community_fraction > 0.0:
        local = rng.random(num_edges) < community_fraction
        n_local = int(np.count_nonzero(local))
        if n_local:
            block = np.minimum(community_size, num_vertices)
            local_pop = 1.0 / np.power(
                np.arange(block, dtype=np.float64) + 5.0, alpha
            )
            local_cdf = np.cumsum(local_pop)
            local_cdf /= local_cdf[-1]
            offsets = np.searchsorted(
                local_cdf, rng.random(n_local)
            ).astype(np.int64)
            offsets = np.minimum(offsets, block - 1)
            block_starts = (src[local] // block) * block
            dst[local] = np.minimum(
                block_starts + offsets, num_vertices - 1
            )

    if hub_shuffle > 0.0:
        perm = np.arange(num_vertices, dtype=np.int64)
        moved = rng.random(num_vertices) < hub_shuffle
        moved_ids = np.flatnonzero(moved)
        perm[moved_ids] = rng.permutation(moved_ids)
        src = perm[src]
        dst = perm[dst]

    weights = _weights(rng, num_edges) if weighted else None
    return CsrGraph.from_edges(src, dst, num_vertices, weights=weights)


def uniform_graph(
    num_vertices: int,
    num_edges: int,
    seed: int = 1,
    weighted: bool = False,
) -> CsrGraph:
    """Uniform random directed graph (Erdős–Rényi-style), for tests and
    as a no-skew control in ablations."""
    _check_sizes(num_vertices, num_edges)
    rng = np.random.default_rng(seed)
    src = rng.integers(0, num_vertices, size=num_edges, dtype=np.int64)
    dst = rng.integers(0, num_vertices, size=num_edges, dtype=np.int64)
    weights = _weights(rng, num_edges) if weighted else None
    return CsrGraph.from_edges(src, dst, num_vertices, weights=weights)


def path_graph(num_vertices: int, weighted: bool = False) -> CsrGraph:
    """A directed path 0 -> 1 -> ... -> V-1 (a tiny deterministic oracle
    graph for unit tests)."""
    src = np.arange(num_vertices - 1, dtype=np.int64)
    dst = src + 1
    weights: Optional[np.ndarray] = (
        np.ones(num_vertices - 1, dtype=np.int64) if weighted else None
    )
    return CsrGraph.from_edges(src, dst, num_vertices, weights=weights)
