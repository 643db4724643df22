"""Golden pins for every ``--policy`` spelling.

``tests/golden/policy_specs.json`` maps each spelling to the policy name
it materializes and the spec fingerprint of one fixed cell (bfs on
test-small, fresh boot, SCALED profile).  Names and fingerprints are
journal identity: a spelling that drifts would orphan every journaled
cell that used it.  ``parse_policy`` and the registry's ``get_policy``
are one namespace and must both reproduce every pin, and so must the
``spec`` each materialized policy carries (what the distributed layer
ships to rebuild it).

Re-capture (only when a spelling is *intended* to change) with::

    REPRO_REFRESH_GOLDEN=1 python -m pytest tests/test_policy_specs.py
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib

import pytest

from repro.config import get_profile
from repro.experiments.harness import ExperimentRunner
from repro.experiments.parse import parse_policy
from repro.experiments.policies import POLICIES, Policy, hugetlb_policy
from repro.experiments.scenarios import fresh
from repro.policy.registry import get_policy, registered_policies

GOLDEN = pathlib.Path(__file__).parent / "golden" / "policy_specs.json"

WORKLOAD = "bfs"
DATASET = "test-small"

SPELLINGS = (
    # The paper's fixed policies.
    "base4k", "thp", "thp-opt",
    "madv-vertex", "madv-edge", "madv-values", "madv-property",
    "dbg", "dbg+thp",
    # Every bare zoo name.
    "never", "greedy-always", "madvise", "khugepaged", "paper-selective",
    "advisor", "hawkeye", "hawkeye-bits", "ingens", "autotuner",
    "hugetlb", "thp-direct", "thp-khugepaged", "thp-defer",
    "thp-opt-defer",
    # Selective THP.
    "selective:0", "selective:0.25", "selective:0.5:original",
    "selective:1:none",
    # Parameterized zoo specs.
    "ingens:threshold=0.8", "paper-selective:s=0.25",
    "hugetlb:fraction=0.5", "hawkeye-bits:stride=4",
    "autotuner:coverage=0.9",
)


def _runner() -> ExperimentRunner:
    return ExperimentRunner(config=get_profile("scaled"))


def _pin(runner, policy) -> list:
    return [
        policy.name,
        runner.cell_spec(WORKLOAD, DATASET, policy, fresh()),
    ]


def _capture() -> dict[str, list]:
    runner = _runner()
    return {
        spelling: _pin(
            runner,
            parse_policy(spelling, dataset=DATASET, config=runner.config),
        )
        for spelling in SPELLINGS
    }


def test_golden_covers_every_spelling():
    if os.environ.get("REPRO_REFRESH_GOLDEN"):
        GOLDEN.write_text(json.dumps(_capture(), indent=1) + "\n")
    assert list(json.loads(GOLDEN.read_text())) == list(SPELLINGS)
    assert set(POLICIES) | set(registered_policies()) <= set(SPELLINGS)


def test_paper_names_are_registry_entries():
    assert set(POLICIES) <= set(registered_policies())
    for key, policy in POLICIES.items():
        assert get_policy(key) is policy
        assert policy.spec == key


@pytest.mark.parametrize("spelling", SPELLINGS)
def test_parse_policy_reproduces_golden(spelling):
    runner = _runner()
    policy = parse_policy(spelling, dataset=DATASET, config=runner.config)
    assert _pin(runner, policy) == json.loads(GOLDEN.read_text())[spelling]


@pytest.mark.parametrize("spelling", SPELLINGS)
def test_registry_and_carried_spec_reproduce_golden(spelling):
    runner = _runner()
    pinned = json.loads(GOLDEN.read_text())[spelling]
    policy = get_policy(spelling, dataset=DATASET, config=runner.config)
    assert _pin(runner, policy) == pinned
    assert policy.spec is not None
    rebuilt = get_policy(policy.spec, dataset=DATASET, config=runner.config)
    assert _pin(runner, rebuilt) == pinned
    assert rebuilt.spec == policy.spec


def test_spec_is_not_identity():
    """``spec`` never enters equality or the fingerprint, and a policy
    no spelling rebuilds carries none."""
    runner = _runner()
    policy = get_policy("base4k")
    unnamed = dataclasses.replace(policy, spec=None)
    assert unnamed == policy
    assert _pin(runner, unnamed) == _pin(runner, policy)
    assert hugetlb_policy(0.5).spec is None
    assert Policy("hand-built", policy.thp, policy.plan).spec is None


def test_bad_selective_spelling_is_a_repro_error():
    from repro.errors import ReproError

    with pytest.raises(ReproError, match="selective"):
        get_policy("selective:lots")
