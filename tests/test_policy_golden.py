"""Golden equivalence tests for the policy-hook API refactor.

The built-in ``never`` / ``always`` / ``madvise`` policies are routed
through the :mod:`repro.policy` hook interface, and the contract is that
this changes *nothing*: figure bytes and journal bytes must be identical
to what the pre-refactor tree (hardwired ``ThpPolicy`` booleans inside
the VMM) produced.  The golden files under ``tests/golden/`` were
captured from that pre-refactor tree; these tests re-run the same sweep
— serial and with a 4-worker pool — and byte-compare.

``policyapi_epoch.json`` pins the run-time epoch policies (Ingens,
HawkEye, HawkEye-bits, the autotuner) the same way: it was captured
from the tree that still ran them through a separate manager channel
beside the hook API, and the cells must reproduce it unchanged.

Re-capture (only meaningful when the built-in decision logic is
*intended* to change) with::

    REPRO_REFRESH_GOLDEN=1 python -m pytest tests/test_policy_golden.py
"""

from __future__ import annotations

import json
import os
import pathlib

import pytest

from repro.config import scaled, tiny
from repro.experiments.figures import fig01_thp_speedup
from repro.experiments.harness import ExperimentRunner
from repro.experiments.policies import POLICIES
from repro.experiments.runconfig import RunConfig
from repro.experiments.scenarios import constrained, fresh
from repro.graph.generators import power_law_graph
from repro.machine.machine import Machine
from repro.policy.registry import get_policy
from repro.workloads.bfs import Bfs
from repro.workloads.pagerank import PageRank

pytestmark = pytest.mark.slow  # SCALED profile (see conftest)

GOLDEN = pathlib.Path(__file__).parent / "golden"
FIG_TXT = GOLDEN / "policyapi_fig01.txt"
FIG_JSON = GOLDEN / "policyapi_fig01.json"
JOURNAL = GOLDEN / "policyapi_journal.jsonl"
EPOCH_JSON = GOLDEN / "policyapi_epoch.json"

WORKLOAD = "bfs"
DATASET = "kron-s"


def _golden_sweep(tmp_path, workers: int):
    """The pinned sweep: fig01 (never/always) plus two madvise cells,
    journaled.  Returns (figure text, figure json, journal bytes)."""
    journal_path = str(tmp_path / f"golden-{workers}.jsonl")
    runner = ExperimentRunner(
        config=scaled(),
        run_config=RunConfig(workers=workers, journal=journal_path),
        datasets=(DATASET,),
        pagerank_iterations=1,
    )
    try:
        figure = fig01_thp_speedup(runner, workloads=(WORKLOAD,))
        # fig01 exercises ThpPolicy.never and .always; the madv-property
        # cells cover the MADVISE mode through the same fault/khugepaged
        # decision points.
        runner.run_cells(
            [
                (WORKLOAD, DATASET, POLICIES["madv-property"], fresh()),
                (WORKLOAD, DATASET, POLICIES["madv-property"], constrained(0.5)),
            ]
        )
    finally:
        runner.run_config.journal.close()
    journal_bytes = pathlib.Path(journal_path).read_bytes()
    assert not runner.failures, runner.failures
    return figure.render(), figure.to_json(), journal_bytes


EPOCH_SPECS = (
    "ingens",
    "hawkeye",
    "hawkeye:per_pass=1",
    "hawkeye-bits",
    "autotuner",
    "autotuner:max_chunks=1",
)
EPOCH_KERNELS = {"bfs": Bfs, "pagerank": PageRank}
EPOCH_FRAG = {"fresh": None, "frag0.9": 0.9}


def _epoch_cells() -> dict[str, dict[str, int]]:
    """Every epoch policy x BFS/PageRank x fresh/fragmented node on the
    tiny profile, with a graph large enough there to promote."""
    graph = power_law_graph(
        16384, 131072, alpha=1.0, hub_shuffle=1.0, seed=5
    )
    cells: dict[str, dict[str, int]] = {}
    for spec in EPOCH_SPECS:
        policy = get_policy(spec)
        for kernel, workload_cls in EPOCH_KERNELS.items():
            for scenario, level in EPOCH_FRAG.items():
                machine = Machine(tiny(), policy.thp)
                if level is not None:
                    machine.fragment(level)
                    machine.finish_setup()
                metrics = machine.run(workload_cls(graph), plan=policy.plan)
                cells[f"{spec}/{kernel}/{scenario}"] = {
                    "manager_promotions": metrics.manager_promotions,
                    "kernel_cycles": metrics.kernel_cycles,
                    "huge_bytes": metrics.huge_bytes,
                    "total_walks": metrics.translation.total_walks,
                }
    return cells


def _epoch_json(cells: dict[str, dict[str, int]]) -> str:
    return json.dumps(cells, indent=1, sort_keys=True) + "\n"


def test_refresh_golden(tmp_path):
    """Re-capture the golden files (opt-in via REPRO_REFRESH_GOLDEN)."""
    if not os.environ.get("REPRO_REFRESH_GOLDEN"):
        pytest.skip("set REPRO_REFRESH_GOLDEN=1 to re-capture goldens")
    txt, js, journal = _golden_sweep(tmp_path, workers=1)
    FIG_TXT.write_text(txt)
    FIG_JSON.write_text(js)
    JOURNAL.write_bytes(journal)
    EPOCH_JSON.write_text(_epoch_json(_epoch_cells()))


def test_epoch_policies_match_golden():
    """Ingens / HawkEye / HawkEye-bits / autotuner cells == the bytes
    of the tree that ran them through the manager side channel."""
    assert _epoch_json(_epoch_cells()) == EPOCH_JSON.read_text()


@pytest.mark.parametrize("workers", [1, 4])
def test_builtin_policies_byte_identical_to_seed(tmp_path, workers):
    """never/always/madvise via the hook path == pre-refactor bytes,
    serial and parallel."""
    txt, js, journal = _golden_sweep(tmp_path, workers)
    assert txt == FIG_TXT.read_text()
    assert js == FIG_JSON.read_text()
    assert journal == JOURNAL.read_bytes()
