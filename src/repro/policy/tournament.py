"""The policy tournament: every zoo policy, every scenario, ranked.

:func:`run_tournament` sweeps a set of zoo policies (spec strings
resolved through :mod:`repro.policy.registry`) across scenario axes —
pristine, fragmented, memory-constrained machines — on the runner's
datasets, normalizes each cell against the 4KB baseline in the *same*
scenario (the paper's convention), and emits a leaderboard
:class:`~repro.experiments.figures.FigureResult`: one row per policy,
one speedup-geomean column per scenario, ranked by overall geomean.

The sweep reuses the experiment harness unchanged: like a figure, it
declares its cells, runs them as one
:meth:`~repro.experiments.harness.ExperimentRunner.run_cells` batch
and reads the leaderboard off the results, so journaling, resume,
dedupe, ``--workers`` fan-out and distributed execution all apply, and
the journal (hence the leaderboard) is byte-identical serial vs
parallel.  Policy parameters fold into cell
fingerprints via the registry's canonical naming, so two
parameterizations of one entry are distinct journal cells.

A speedup with a failed cell behind it is that
:class:`~repro.experiments.harness.CellFailure`
(:func:`~repro.experiments.figures.speedup`), and so is any geomean
over it: a scenario column or ``overall`` value with a failed cell
behind it reads ``FAILED(site)``, and the board counts its failed
cells.  Ranking is deterministic: policies with a numeric overall
first, by overall geomean descending, then the failed ones; ties and
failures are ordered by policy spec, so no failure is ever compared.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence, Union

from ..errors import ReproError
from .registry import get_policy

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from ..experiments.figures import FigureResult
    from ..experiments.harness import ExperimentRunner
    from ..experiments.scenarios import Scenario

DEFAULT_POLICIES = (
    "greedy-always",
    "madvise",
    "khugepaged",
    "paper-selective",
    "hawkeye",
    "hawkeye-bits",
    "ingens",
    "autotuner",
)
"""The default bracket: the dataset-independent zoo (add ``advisor``
explicitly — it needs a graph per dataset and is slower to
materialize)."""

DEFAULT_SCENARIOS = ("fresh", "fragmented:0.8", "constrained:0.5")
"""The default scenario axes: pristine boot, fragmented memory,
constrained memory.  80% fragmentation is the highest default level
every stock dataset can set up (wiki-s's page-cache footprint leaves
too few pristine regions for 90%; pass ``--scenarios fragmented:0.9``
explicitly on the datasets that support it)."""

BASELINE_SPEC = "never"
"""Every scenario's normalization baseline (the paper's 4KB bars)."""


def run_tournament(
    runner: "ExperimentRunner",
    policies: Sequence[str] = DEFAULT_POLICIES,
    scenarios: Sequence[Union[str, "Scenario"]] = DEFAULT_SCENARIOS,
    workloads: Sequence[str] = ("bfs",),
    datasets: Optional[Sequence[str]] = None,
) -> "FigureResult":
    """Run the tournament and return the ranked leaderboard.

    Args:
        runner: the experiment harness to run cells on (its journal,
            workers and dist settings are reused unchanged).
        policies: policy specs (anything
            :func:`~repro.policy.registry.get_policy` resolves) to rank.
        scenarios: scenario specs (strings through
            :func:`~repro.experiments.parse.parse_scenario`) or
            :class:`~repro.experiments.scenarios.Scenario` objects.
        workloads: workload names each policy runs under.
        datasets: dataset names; defaults to ``runner.datasets``.

    Raises:
        ReproError: unknown policy/scenario specs, or colliding
            scenario display names.
    """
    from ..experiments.figures import FigureResult, speedup
    from ..experiments.parse import parse_scenario

    if not policies:
        raise ReproError("tournament needs at least one policy spec")
    if len(set(policies)) != len(policies):
        raise ReproError(f"duplicate policy specs: {list(policies)}")
    resolved_scenarios = [
        parse_scenario(spec) if isinstance(spec, str) else spec
        for spec in scenarios
    ]
    scenario_names = [s.name for s in resolved_scenarios]
    if len(set(scenario_names)) != len(scenario_names):
        raise ReproError(
            f"scenario display names collide: {scenario_names}"
        )
    dataset_names = tuple(
        runner.datasets if datasets is None else datasets
    )

    # Materialize each spec once per dataset (the advisor's plan is
    # graph-derived, so dataset-aware entries differ across datasets).
    baseline = {
        dataset: get_policy(
            BASELINE_SPEC, dataset=dataset, config=runner.config
        )
        for dataset in dataset_names
    }
    contenders = {
        spec: {
            dataset: get_policy(
                spec, dataset=dataset, config=runner.config
            )
            for dataset in dataset_names
        }
        for spec in policies
    }

    # Each (scenario, workload, dataset) runs its baseline, then every
    # contender; ``outcome`` keys the baseline's result by spec None.
    keys = []
    cells = []
    for scenario in resolved_scenarios:
        for workload in workloads:
            for dataset in dataset_names:
                for spec in (None, *policies):
                    keys.append((scenario.name, workload, dataset, spec))
                    cells.append((
                        workload,
                        dataset,
                        baseline[dataset]
                        if spec is None
                        else contenders[spec][dataset],
                        scenario,
                    ))
    outcome = dict(zip(keys, runner.run_cells(cells)))

    standings = []
    for spec in policies:
        per_scenario = {}
        all_speedups = []
        for name in scenario_names:
            speedups = [
                speedup(
                    outcome[(name, workload, dataset, spec)],
                    outcome[(name, workload, dataset, None)],
                )
                for workload in workloads
                for dataset in dataset_names
            ]
            per_scenario[name] = _geomean_or_failure(speedups)
            all_speedups.extend(speedups)
        standings.append(
            (_geomean_or_failure(all_speedups), spec, per_scenario)
        )
    # Failed overalls sink, in spec order: a failure is never compared.
    standings.sort(
        key=lambda item: (0, -item[0], item[1])
        if getattr(item[0], "ok", True)
        else (1, 0.0, item[1])
    )

    result = FigureResult(
        "tournament",
        "Policy tournament: geomean speedup over the 4KB baseline "
        "per scenario",
        notes=(
            f"{len(policies)} policies x {len(resolved_scenarios)} "
            f"scenarios x {len(workloads)} workload(s) x "
            f"{len(dataset_names)} dataset(s); baseline "
            f"{BASELINE_SPEC!r} rerun per scenario; ranked by overall "
            "geomean, ties by spec"
        ),
    )
    for rank, (overall, spec, per_scenario) in enumerate(standings, 1):
        row = {"rank": rank, "policy": spec}
        for name in scenario_names:
            row[name] = per_scenario[name]
        row["overall"] = overall
        result.rows.append(row)
    return result


def _geomean_or_failure(speedups: Sequence) -> object:
    """The geomean of ``speedups``, or the first failed one among them."""
    from ..experiments.reporting import geomean

    for value in speedups:
        if not getattr(value, "ok", True):
            return value
    return geomean(speedups)
