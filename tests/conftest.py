"""Shared fixtures for the test suite.

Most tests run on the TINY machine profile (4MB nodes, 64KB "huge"
pages) and small graphs so the whole suite stays fast; integration tests
that must exhibit the paper's TLB-pressure regime use the SCALED profile
with mid-size graphs and are marked ``slow``.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.analysis.locksan import get_locksan, set_locksan
from repro.analysis.sanitizer import set_sanitize
from repro.config import MachineConfig, scaled, tiny
from repro.graph.csr import CsrGraph
from repro.graph.generators import path_graph, power_law_graph, uniform_graph
from repro.mem.physical import NodeMemory, PhysicalMemory
from repro.mem.stats import KernelLedger


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: integration tests on the SCALED profile"
    )


@pytest.fixture(autouse=True)
def _enable_memsan():
    """Run the whole suite under MemSan.

    Every Machine/PhysicalMemory a test constructs gets the sanitizer
    attached, so the existing suite doubles as an invariant stress test.
    ``REPRO_SANITIZE=0`` in the environment opts out (used to bisect
    whether a failure is a broken invariant or a broken check), and
    tests can still force either way via ``Machine(sanitize=...)`` or
    ``set_sanitize``.
    """
    if os.environ.get("REPRO_SANITIZE", "").strip().lower() in ("0", "false"):
        yield
        return
    previous = set_sanitize(True)
    try:
        yield
    finally:
        set_sanitize(previous)


@pytest.fixture(autouse=True)
def _enable_locksan():
    """Run the whole suite under LockSan when ``REPRO_LOCKSAN=1``.

    Opt-in (unlike MemSan) because it swaps instrumented classes under
    watched objects; CI runs the suite once with it on.  While enabled,
    every test additionally asserts that no dynamic lock-discipline
    violation was observed during the test — the suite doubles as an
    Eraser-style stress test of any class that calls ``watch()``.
    """
    if os.environ.get("REPRO_LOCKSAN", "").strip().lower() in (
        "", "0", "false",
    ):
        yield
        return
    previous = set_locksan(True)
    san = get_locksan()
    san.reset()
    try:
        yield
    finally:
        set_locksan(previous)
        violations = san.report()
        san.reset()
        assert not violations, [v.render() for v in violations]


@pytest.fixture
def tiny_cfg() -> MachineConfig:
    """The TINY machine profile."""
    return tiny()


@pytest.fixture
def scaled_cfg() -> MachineConfig:
    """The SCALED machine profile."""
    return scaled()


@pytest.fixture
def node(tiny_cfg) -> NodeMemory:
    """A fresh TINY-profile NUMA node."""
    ledger = KernelLedger(cost=tiny_cfg.cost)
    return NodeMemory(0, tiny_cfg, ledger)


@pytest.fixture
def physical(tiny_cfg) -> PhysicalMemory:
    """A fresh TINY-profile machine's physical memory."""
    return PhysicalMemory(tiny_cfg)


@pytest.fixture
def small_graph() -> CsrGraph:
    """A 256-vertex uniform random graph."""
    return uniform_graph(num_vertices=256, num_edges=2048, seed=3)


@pytest.fixture
def small_weighted_graph() -> CsrGraph:
    """A 256-vertex uniform random weighted graph."""
    return uniform_graph(num_vertices=256, num_edges=2048, seed=3,
                         weighted=True)


@pytest.fixture
def skewed_graph() -> CsrGraph:
    """A power-law graph with hot hubs scattered by shuffling."""
    return power_law_graph(
        num_vertices=2048,
        num_edges=16384,
        alpha=1.0,
        hub_shuffle=1.0,
        seed=11,
    )


@pytest.fixture
def line_graph() -> CsrGraph:
    """A 16-vertex directed path (deterministic oracle)."""
    return path_graph(16)


def assert_perm(perm: np.ndarray, n: int) -> None:
    """Assert ``perm`` is a permutation of 0..n-1."""
    assert perm.shape == (n,)
    assert np.array_equal(np.sort(perm), np.arange(n))
