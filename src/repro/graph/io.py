"""Graph (de)serialization and on-disk size accounting.

A plain edge-list text format for interchange and tests.

:func:`on_disk_bytes` reports how large a graph's file representation is
— the number that drives the page-cache interference model of §4.3: when
the loader streams that many bytes through the page cache on the
application's NUMA node, exactly that much single-use memory competes
with the application's huge page allocations.
"""

from __future__ import annotations

import os
from typing import Optional

import numpy as np

from ..errors import GraphError
from .csr import CsrGraph

EDGE_RECORD_BYTES = 8
"""Bytes per array element in the simulated on-disk format (the paper's
binary CSR inputs use 8-byte records)."""


def on_disk_bytes(graph: CsrGraph) -> int:
    """Size of the graph's serialized form, as cached by the OS when the
    application loads it (vertex + edge + optional values array)."""
    elements = graph.indptr.size + graph.indices.size
    if graph.weights is not None:
        elements += graph.weights.size
    return elements * EDGE_RECORD_BYTES


def save_edge_list(graph: CsrGraph, path: str) -> None:
    """Write a whitespace-separated edge list (``src dst [weight]``)."""
    src, dst = graph.edge_endpoints()
    with open(path, "w", encoding="ascii") as handle:
        if graph.weights is None:
            for s, d in zip(src.tolist(), dst.tolist()):
                handle.write(f"{s} {d}\n")
        else:
            for s, d, w in zip(
                src.tolist(), dst.tolist(), graph.weights.tolist()
            ):
                handle.write(f"{s} {d} {w}\n")


def load_edge_list(path: str, num_vertices: Optional[int] = None) -> CsrGraph:
    """Load a whitespace-separated edge list.

    Lines are ``src dst`` or ``src dst weight``; blank lines and lines
    starting with ``#`` are ignored.  ``num_vertices`` defaults to
    ``max(id) + 1``.
    """
    if not os.path.exists(path):
        raise GraphError(f"no such edge list: {path}")
    srcs: list[int] = []
    dsts: list[int] = []
    weights: list[int] = []
    with open(path, "r", encoding="ascii") as handle:
        for line in handle:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) not in (2, 3):
                raise GraphError(f"malformed edge line: {line!r}")
            srcs.append(int(parts[0]))
            dsts.append(int(parts[1]))
            if len(parts) == 3:
                weights.append(int(parts[2]))
    if weights and len(weights) != len(srcs):
        raise GraphError("either all or no edges may carry weights")
    src = np.array(srcs, dtype=np.int64)
    dst = np.array(dsts, dtype=np.int64)
    if num_vertices is None:
        num_vertices = int(max(src.max(initial=-1), dst.max(initial=-1))) + 1
    w = np.array(weights, dtype=np.int64) if weights else None
    return CsrGraph.from_edges(src, dst, num_vertices, weights=w)
