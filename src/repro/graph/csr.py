"""Compressed Sparse Row graph storage (paper §2.1.1).

A directed graph is stored as the paper's three dense arrays:

- the **vertex array** (``indptr``): cumulative neighbor counts, length
  ``V + 1``;
- the **edge array** (``indices``): destination vertex ids, length ``E``;
- the optional **values array** (``weights``): per-edge weights for SSSP.

The fourth array of Fig. 3 — the per-vertex **property array** — belongs
to the *workload*, not the graph, and lives in
:mod:`repro.workloads.layout`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import GraphError
from ..radix import stable_order


def _integer_ids(values: np.ndarray, what: str) -> np.ndarray:
    """``values`` as an array, rejecting non-integer dtypes.

    Casting float ids to an integer type would truncate them silently
    (``0.7`` becomes vertex 0), so they are an error instead.  An empty
    sequence (``[]`` is float to numpy) holds no ids to truncate.

    Raises:
        GraphError: if the dtype of a non-empty sequence is not an
            integer type.
    """
    ids = np.asarray(values)
    if ids.size == 0:
        return ids.astype(np.int64)
    if not np.issubdtype(ids.dtype, np.integer):
        raise GraphError(f"{what} must be integers, got dtype {ids.dtype}")
    return ids


def concat_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenate ``arange(s, s + c)`` for each (s, c) pair, vectorized.

    The workhorse for gathering per-vertex edge slices without a Python
    loop.  Pairs with ``c == 0`` contribute nothing.

    >>> concat_ranges(np.array([5, 0]), np.array([3, 2])).tolist()
    [5, 6, 7, 0, 1]
    """
    starts = np.asarray(starts, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    nonzero = counts > 0
    starts = starts[nonzero]
    counts = counts[nonzero]
    if starts.size == 0:
        return np.empty(0, dtype=np.int64)
    total = int(counts.sum())
    out = np.ones(total, dtype=np.int64)
    out[0] = starts[0]
    ends = np.cumsum(counts)[:-1]
    out[ends] = starts[1:] - (starts[:-1] + counts[:-1] - 1)
    return np.cumsum(out)


class CsrGraph:
    """A directed graph in CSR form.

    Attributes:
        indptr: ``int64[V + 1]`` vertex array.
        indices: ``int64[E]`` edge array (destination ids).
        weights: optional ``int64[E]`` values array.
    """

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        weights: Optional[np.ndarray] = None,
    ) -> None:
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(indices, dtype=np.int64)
        self.weights = (
            None
            if weights is None
            else np.ascontiguousarray(weights, dtype=np.int64)
        )
        self.validate()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @staticmethod
    def from_edges(
        src: np.ndarray,
        dst: np.ndarray,
        num_vertices: int,
        weights: Optional[np.ndarray] = None,
    ) -> "CsrGraph":
        """Build a CSR graph from parallel edge arrays.

        Edges are grouped by source (stable, preserving input order within
        a source's neighbor list).  Duplicate edges and self-loops are
        kept — real web/social crawls contain both.  Ids may be any
        integer dtype; the grouping is a linear-time LSD radix sort
        (:func:`repro.radix.stable_order`).

        Raises:
            GraphError: on non-integer ids, mismatched lengths or ids
                outside ``0..num_vertices-1``.
        """
        src = _integer_ids(src, "source ids")
        dst = _integer_ids(dst, "destination ids")
        if src.shape != dst.shape:
            raise GraphError("src and dst must have the same length")
        if src.size and (src.min() < 0 or src.max() >= num_vertices):
            raise GraphError("source id out of range")
        if dst.size and (dst.min() < 0 or dst.max() >= num_vertices):
            raise GraphError("destination id out of range")
        if not np.can_cast(src.dtype, np.intp):
            src = src.astype(np.intp)  # uint64: bincount needs intp
        order = stable_order(src)
        counts = np.bincount(src, minlength=num_vertices)
        indptr = np.zeros(num_vertices + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        indices = dst[order]
        w = None if weights is None else np.asarray(weights, dtype=np.int64)[order]
        return CsrGraph(indptr, indices, w)

    def validate(self) -> None:
        """Check structural invariants; raises :class:`GraphError`."""
        if self.indptr.ndim != 1 or self.indptr.size < 1:
            raise GraphError("indptr must be a 1-D array of length >= 1")
        if self.indptr[0] != 0:
            raise GraphError("indptr must start at 0")
        if np.any(np.diff(self.indptr) < 0):
            raise GraphError("indptr must be non-decreasing")
        if self.indptr[-1] != self.indices.size:
            raise GraphError(
                f"indptr end ({self.indptr[-1]}) != number of edges "
                f"({self.indices.size})"
            )
        if self.indices.size and (
            self.indices.min() < 0 or self.indices.max() >= self.num_vertices
        ):
            raise GraphError("edge destination out of range")
        if self.weights is not None and self.weights.shape != self.indices.shape:
            raise GraphError("weights must parallel the edge array")

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        """Number of vertices V."""
        return self.indptr.size - 1

    @property
    def num_edges(self) -> int:
        """Number of directed edges E."""
        return self.indices.size

    @property
    def average_degree(self) -> float:
        """Average out-degree E / V."""
        return self.num_edges / max(1, self.num_vertices)

    def neighbors(self, vertex: int) -> np.ndarray:
        """The destination ids of ``vertex``'s outgoing edges."""
        return self.indices[self.indptr[vertex] : self.indptr[vertex + 1]]

    def out_degrees(self) -> np.ndarray:
        """Out-degree of every vertex."""
        return np.diff(self.indptr)

    def in_degrees(self) -> np.ndarray:
        """In-degree of every vertex (frequency of property-array access
        in push-based kernels)."""
        return np.bincount(self.indices, minlength=self.num_vertices)

    def edge_endpoints(self) -> tuple[np.ndarray, np.ndarray]:
        """Parallel (src, dst) arrays reconstructing the edge list."""
        src = np.repeat(
            np.arange(self.num_vertices, dtype=np.int64), self.out_degrees()
        )
        return src, self.indices.copy()

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------

    def relabel(self, perm: np.ndarray) -> "CsrGraph":
        """Renumber vertices: vertex ``v`` becomes ``perm[v]``.

        This is the "generate a new ID for each vertex" traversal of DBG
        preprocessing (§5.1.2).  The returned graph has identical
        structure under the new ids; neighbor lists keep their relative
        order.

        Raises:
            GraphError: if ``perm`` is not a permutation of ``0..V-1``.
        """
        perm = _integer_ids(perm, "perm").astype(np.int64, copy=False)
        v = self.num_vertices
        if (
            perm.shape != (v,)
            or (v and (perm.min() < 0 or perm.max() >= v))
            or not np.all(np.bincount(perm, minlength=v) == 1)
        ):
            raise GraphError("perm must be a permutation of 0..V-1")
        old_in_new_order = np.empty(v, dtype=np.int64)
        old_in_new_order[perm] = np.arange(v, dtype=np.int64)
        degrees = self.out_degrees()
        new_counts = degrees[old_in_new_order]
        indptr = np.zeros(v + 1, dtype=np.int64)
        np.cumsum(new_counts, out=indptr[1:])
        gather = concat_ranges(self.indptr[old_in_new_order], new_counts)
        indices = perm[self.indices[gather]]
        weights = None if self.weights is None else self.weights[gather]
        return CsrGraph(indptr, indices, weights)

    def with_weights(self, weights: np.ndarray) -> "CsrGraph":
        """A copy sharing structure but carrying the given values array."""
        return CsrGraph(self.indptr, self.indices, weights)

    # ------------------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CsrGraph(V={self.num_vertices}, E={self.num_edges}, "
            f"weighted={self.weights is not None})"
        )
