"""Cell ↔ wire encoding for the distributed sweep layer.

Policies are dataclasses carrying factory closures — they do not ride
JSON — so a cell ships as data: the policy's registry spec
(:attr:`~repro.experiments.policies.Policy.spec`, the spelling that
rebuilds it) and the scenario's fields (``Scenario`` is a frozen
dataclass of plain values).  A cell is only dispatched remotely when
that pair **rebuilds the identical spec fingerprint** on the
coordinator's own runner.  A hand-built policy has no spec; it is not
approximated — it runs locally, and the journal never sees a
fingerprint the wire form would not reproduce.

Workers repeat the rebuild on their side (:mod:`repro.dist.worker`)
through the same :func:`decode_cell`, recompute the fingerprint, and
refuse the lease on a mismatch or malformed fields.  Fingerprint
equality end-to-end is what makes the journal's spec-fingerprint
dedupe a sound idempotency key.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Optional

from ..errors import ReproError
from ..experiments.parse import parse_policy
from ..experiments.scenarios import Scenario

_SCENARIO_NUMBERS = ("frag_level", "noise_nonmovable_gb", "noise_movable_gb")


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def decode_cell(runner: Any, task: dict[str, Any]) -> tuple[Any, Scenario]:
    """Rebuild a task's ``(policy, scenario)`` on ``runner``.

    Raises:
        ReproError: unknown policy spec, or scenario fields that are not
            exactly :class:`~repro.experiments.scenarios.Scenario`'s with
            plain values of the right type.
    """
    fields = task["scenario"]
    try:
        scenario = Scenario(**fields)
    except TypeError as exc:
        raise ReproError(f"bad scenario fields {fields!r}: {exc}") from exc
    if not (
        isinstance(scenario.name, str)
        and isinstance(scenario.tmpfs_remote, bool)
        and (scenario.pressure_gb is None
             or _is_number(scenario.pressure_gb))
        and all(_is_number(getattr(scenario, f)) for f in _SCENARIO_NUMBERS)
    ):
        raise ReproError(f"bad scenario fields {fields!r}")
    policy = parse_policy(
        task["policy"], dataset=task["dataset"], config=runner.config
    )
    return policy, scenario


def encode_cell(runner: Any, cell: tuple) -> Optional[dict[str, Any]]:
    """Encode one cell as a wire task, or ``None`` when inexpressible.

    The returned task carries the policy spec and scenario fields plus
    the spec fingerprint they were verified against::

        {"workload": ..., "dataset": ..., "policy": <spec>, "scenario":
         {<Scenario fields>}, "spec": ..., "cell": {coords}}

    ``None`` means the policy has no spec (a hand-built ``Policy``), or
    the pair does not rebuild the cell (say a policy derived from a
    registered one with :func:`dataclasses.replace`, whose inherited
    spec names the original) — the caller must run the cell locally.
    """
    workload, dataset, policy, scenario = cell
    if policy.spec is None:
        return None
    task = {
        "workload": workload,
        "dataset": dataset,
        "policy": policy.spec,
        "scenario": dataclasses.asdict(scenario),
        "spec": runner.cell_spec(workload, dataset, policy, scenario),
        "cell": {
            "workload": workload,
            "dataset": dataset,
            "policy": policy.name,
            "scenario": scenario.name,
        },
    }
    try:
        rebuilt = runner.cell_spec(
            workload, dataset, *decode_cell(runner, task)
        )
    except ReproError:
        return None
    return task if rebuilt == task["spec"] else None
