"""A stream with an identity is translated once per page layout.

:meth:`SimProcess.translate` hands a stream that carries an
:attr:`AccessStream.identity` the trace it last translated under that
identity, as long as the translation layout is unchanged.  The reused
trace must equal a fresh translation byte for byte, be read-only, and
give way to a fresh translation as soon as a promotion or demotion
changes the layout.  Streams without an identity are always translated.
"""

from __future__ import annotations

import collections
import json

import numpy as np
import pytest

from repro.config import tiny
from repro.core.plan import PlacementPlan
from repro.graph.generators import power_law_graph, uniform_graph
from repro.machine.machine import Machine
from repro.machine.process import SimProcess
from repro.mem.thp import ThpPolicy
from repro.mem.vmm import VirtualMemoryManager
from repro.policy.registry import get_policy
from repro.tlb.trace import AccessStream
from repro.workloads.base import ARRAY_PROPERTY
from repro.workloads.layout import MemoryLayout
from repro.workloads.pagerank import EDGE_SWEEP, RANK_SWEEP, PageRank


@pytest.fixture
def graph():
    """Arrays span several huge chunks on the TINY profile."""
    return uniform_graph(num_vertices=16384, num_edges=65536, seed=9)


def _process(graph, thp):
    machine = Machine(tiny(), thp)
    workload = PageRank(graph)
    vmm = VirtualMemoryManager(machine.app_node, machine.thp, machine.config)
    process = SimProcess(vmm, workload, MemoryLayout(workload), machine.config)
    process.allocate_and_touch(PlacementPlan.none())
    return process


def _edge_sweep(process, identity=EDGE_SWEEP):
    """PageRank's edge sweep as its first iteration yields it."""
    workload = process.workload
    vertices = np.arange(workload.graph.num_vertices, dtype=np.int64)
    positions, targets = workload.gather_frontier_edges(vertices)
    stream = workload.edge_phase_stream(
        vertices, positions, targets, source_rank_reads=True
    )
    stream.identity = identity
    return stream


def _trace_bytes(trace):
    lookup_keys, lookup_aids = trace.lookup_view()
    return (
        trace.keys.tobytes(),
        trace.counts.tobytes(),
        trace.array_ids.tobytes(),
        lookup_keys.tobytes(),
        lookup_aids.tobytes(),
        trace.access_totals().tobytes(),
    )


@pytest.fixture
def spies(monkeypatch):
    """Per-identity counts of stream builds (reads of a stream's
    blocks), fresh translations and held-trace reuses."""
    counts = {key: collections.Counter() for key in ("build", "fresh", "reuse")}

    def spy(owner, name, key, stream_of):
        original = getattr(owner, name)

        def wrapper(self, *args):
            counts[key][stream_of(self, *args).identity] += 1
            return original(self, *args)

        monkeypatch.setattr(owner, name, wrapper)

    spy(AccessStream, "blocks", "build", lambda stream: stream)
    spy(SimProcess, "_translate", "fresh", lambda process, stream: stream)
    spy(SimProcess, "_reuse", "reuse", lambda process, stream, trace: stream)
    return counts


def test_reused_trace_equals_fresh_translate(graph, spies):
    process = _process(graph, ThpPolicy.always())
    first = process.translate(_edge_sweep(process))
    reused = process.translate(_edge_sweep(process))
    assert reused is first
    assert spies["reuse"][EDGE_SWEEP] == 1
    assert spies["build"][EDGE_SWEEP] == 1, "the reused stream was built"
    fresh = process.translate(_edge_sweep(process, identity=None))
    assert _trace_bytes(reused) == _trace_bytes(fresh)
    assert (first.keys & 1).any(), "no huge key: the layout is trivial"


@pytest.mark.parametrize("change", ["promote", "demote"])
def test_layout_change_forces_a_fresh_translate(graph, spies, change):
    thp = ThpPolicy.never() if change == "promote" else ThpPolicy.always()
    process = _process(graph, thp)
    vma = process.vma_by_array[ARRAY_PROPERTY]
    first = process.translate(_edge_sweep(process))
    if change == "promote":
        assert not vma.is_huge.any()
        assert process.vmm.promote_chunk(vma, 0)
    else:
        assert vma.is_huge.all()
        process.vmm.demote_chunk(vma, 0)
    second = process.translate(_edge_sweep(process))
    assert second is not first
    assert spies["fresh"][EDGE_SWEEP] == 2
    assert spies["reuse"][EDGE_SWEEP] == 0
    assert _trace_bytes(first) != _trace_bytes(second)
    fresh = process.translate(_edge_sweep(process, identity=None))
    assert _trace_bytes(second) == _trace_bytes(fresh)
    assert process.translate(_edge_sweep(process)) is second


def test_stream_without_identity_is_never_reused(graph, spies):
    process = _process(graph, ThpPolicy.never())
    first = process.translate(_edge_sweep(process, identity=None))
    second = process.translate(_edge_sweep(process, identity=None))
    assert second is not first
    assert spies["fresh"][None] == 2
    assert spies["build"][None] == 2
    assert not spies["reuse"]
    assert first.keys.flags.writeable


def test_identities_are_held_apart(graph):
    process = _process(graph, ThpPolicy.never())
    edges = process.translate(_edge_sweep(process))
    other = process.translate(_edge_sweep(process, identity="other"))
    assert other is not edges
    assert process.translate(_edge_sweep(process)) is edges


def test_reused_trace_is_read_only(graph):
    process = _process(graph, ThpPolicy.always())
    process.translate(_edge_sweep(process))
    trace = process.translate(_edge_sweep(process))
    lookup_keys, lookup_aids = trace.lookup_view()
    arrays = (
        trace.keys,
        trace.counts,
        trace.array_ids,
        lookup_keys,
        lookup_aids,
        trace.access_totals(),
    )
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1


def test_another_length_under_a_held_identity_is_refused(graph):
    process = _process(graph, ThpPolicy.never())
    process.translate(_edge_sweep(process))
    impostor = AccessStream(
        np.zeros(3, dtype=np.uint8), np.arange(3, dtype=np.int64)
    )
    impostor.identity = EDGE_SWEEP
    with pytest.raises(ValueError, match="accesses"):
        process.translate(impostor)


def test_pagerank_builds_and_translates_each_sweep_once(graph, spies):
    workload = PageRank(graph, epsilon=0.0, max_iterations=3)
    Machine(tiny(), ThpPolicy.never()).run(workload)
    assert workload.iterations == 3
    for identity in (EDGE_SWEEP, RANK_SWEEP):
        assert spies["build"][identity] == 1
        assert spies["fresh"][identity] == 1
        assert spies["reuse"][identity] == 2


def _metrics_json(metrics):
    return json.dumps(
        {
            "kernel_cycles": metrics.kernel_cycles,
            "huge_bytes": metrics.huge_bytes,
            "manager_promotions": metrics.manager_promotions,
            "walks": metrics.translation.total_walks,
            "l1_misses": metrics.translation.total_l1_misses,
            "accesses": metrics.translation.total_accesses,
        },
        sort_keys=True,
    )


@pytest.mark.parametrize("spec", ["hawkeye", "autotuner"])
def test_epoch_promotions_between_iterations_retranslate(
    monkeypatch, spies, spec
):
    """An epoch policy that promotes between PageRank iterations gets
    the same result as a run that never reuses, and re-translates the
    sweeps whose layout changed."""
    graph = power_law_graph(16384, 131072, alpha=1.0, hub_shuffle=1.0, seed=5)
    policy = get_policy(spec)

    def run():
        workload = PageRank(graph, epsilon=0.0, max_iterations=3)
        return Machine(tiny(), policy.thp).run(workload, plan=policy.plan)

    reusing = run()
    assert reusing.manager_promotions > 0
    assert spies["fresh"][EDGE_SWEEP] > 1, "no promotion changed the layout"
    assert spies["fresh"][EDGE_SWEEP] + spies["reuse"][EDGE_SWEEP] == 3
    monkeypatch.setattr(SimProcess, "_reuse", None)  # reuse would fail
    monkeypatch.setattr(
        SimProcess, "translate", lambda self, stream: self._translate(stream)
    )
    assert _metrics_json(run()) == _metrics_json(reusing)
