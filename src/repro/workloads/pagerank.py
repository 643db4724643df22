"""PageRank (paper §3.2).

Push-style power iteration: every vertex distributes ``rank[u] /
out_degree[u]`` to its outgoing neighbors, accumulating into the property
array (the next-iteration scores).  Property accesses are pointer
indirect and occur once per edge per iteration, so total property traffic
scales with iterations — the paper notes PR's property access count
depends on the iteration count to convergence and the threshold ε.

The source rank array is read sequentially (once per vertex per
iteration) and modeled as its own data structure (``ARRAY_RANK``).

Both of an iteration's streams are data-independent: every iteration
reads the same addresses in the same order, whatever the scores.  They
carry :attr:`~repro.tlb.trace.AccessStream.identity` names, so the
machine translates each once for as long as the page layout holds.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ..graph.csr import CsrGraph
from ..tlb.trace import AccessStream
from .base import (
    ARRAY_EDGE,
    ARRAY_PROPERTY,
    ARRAY_RANK,
    ARRAY_VERTEX,
    Workload,
)

EDGE_SWEEP = "pagerank.edge-sweep"
"""Identity of the per-iteration pass over every edge."""

RANK_SWEEP = "pagerank.rank-sweep"
"""Identity of the end-of-iteration property write-back and rank reload."""


class PageRank(Workload):
    """Iterative PageRank with damping.

    Args:
        graph: the network.
        damping: damping factor (0.85 in the original formulation).
        epsilon: convergence threshold on the L1 score delta.
        max_iterations: hard iteration cap — benchmarks use a small cap
            so trace volume stays proportional across datasets; examples
            run to convergence.
    """

    name = "pagerank"

    def __init__(
        self,
        graph: CsrGraph,
        damping: float = 0.85,
        epsilon: float = 1e-4,
        max_iterations: int = 3,
    ) -> None:
        super().__init__(graph)
        self.damping = damping
        self.epsilon = epsilon
        self.max_iterations = max_iterations
        self.scores = np.full(
            graph.num_vertices, 1.0 / max(1, graph.num_vertices)
        )
        self.iterations = 0
        self.converged = False

    def array_ids(self) -> tuple[int, ...]:
        return (ARRAY_VERTEX, ARRAY_EDGE, ARRAY_RANK, ARRAY_PROPERTY)

    def run(self) -> Iterator[AccessStream]:
        graph = self.graph
        num_vertices = graph.num_vertices
        out_degrees = np.diff(graph.indptr)
        all_vertices = np.arange(num_vertices, dtype=np.int64)
        # Every iteration walks the whole edge array in order, so edge
        # ``e``'s property target is ``graph.indices[e]`` itself, and the
        # stream builds its edge-index column from a range (no E-long
        # array lives for the cell).
        targets = graph.indices
        base_score = (1.0 - self.damping) / max(1, num_vertices)
        self.scores[:] = 1.0 / max(1, num_vertices)
        self.iterations = 0
        self.converged = False
        for _ in range(self.max_iterations):
            edges = self.edge_phase_stream(
                all_vertices,
                None,
                targets,
                source_rank_reads=True,
            )
            edges.identity = EDGE_SWEEP
            yield edges
            del edges  # or its built columns outlive the translation
            contributions = np.where(
                out_degrees > 0, self.scores / np.maximum(out_degrees, 1), 0.0
            )
            dangling = float(self.scores[out_degrees == 0].sum())
            next_scores = np.zeros(num_vertices)
            # Edges are grouped by source, so repeating each vertex's
            # contribution by its degree gives every edge's.  It lives
            # for this step only: the machine holds the sweep's trace
            # for the whole run, and a held per-edge array would add to
            # that peak.
            np.add.at(
                next_scores, targets, np.repeat(contributions, out_degrees)
            )
            next_scores = base_score + self.damping * (
                next_scores + dangling / max(1, num_vertices)
            )
            delta = float(np.abs(next_scores - self.scores).sum())
            self.scores = next_scores
            self.iterations += 1
            # End-of-iteration sweep: write the new scores back through
            # the property array and reload the rank array.
            yield AccessStream.concatenate(
                [
                    self.sequential_pass_stream(ARRAY_PROPERTY),
                    self.sequential_pass_stream(ARRAY_RANK),
                ],
                identity=RANK_SWEEP,
            )
            if delta < self.epsilon:
                self.converged = True
                break

    def result(self) -> np.ndarray:
        """Final PageRank scores (sum ≈ 1)."""
        return self.scores
