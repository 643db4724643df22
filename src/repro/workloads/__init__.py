"""Instrumented graph-analytic workloads (paper §2.1, §3.2).

Each workload implements the push-based, frontier-iterative programming
model of the paper's Fig. 4 and *emits its memory access stream* — the
interleaved sequence of sequential vertex/edge array reads and
pointer-indirect property array accesses — which the machine translates
and runs through the TLB model.

- :mod:`repro.workloads.bfs` — Breadth-First Search.
- :mod:`repro.workloads.sssp` — Single-Source Shortest Paths
  (push-based/frontier Bellman-Ford).
- :mod:`repro.workloads.pagerank` — PageRank (push-style power
  iteration).
- :mod:`repro.workloads.layout` — array specs and allocation order
  (natural vs. graph-analytics-optimized).
"""

from .base import (
    ARRAY_EDGE,
    ARRAY_NAMES,
    ARRAY_PROPERTY,
    ARRAY_RANK,
    ARRAY_VALUES,
    ARRAY_VERTEX,
    Workload,
)
from .layout import AllocationOrder, ArraySpec, MemoryLayout
from .bfs import Bfs
from .sssp import Sssp
from .pagerank import PageRank
from .registry import WORKLOADS, create_workload, workload_names

__all__ = [
    "ARRAY_EDGE",
    "ARRAY_NAMES",
    "ARRAY_PROPERTY",
    "ARRAY_RANK",
    "ARRAY_VALUES",
    "ARRAY_VERTEX",
    "AllocationOrder",
    "ArraySpec",
    "Bfs",
    "MemoryLayout",
    "PageRank",
    "Sssp",
    "WORKLOADS",
    "Workload",
    "create_workload",
    "workload_names",
]
