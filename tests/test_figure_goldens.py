"""Golden bytes for every registered figure.

Every entry of :data:`repro.experiments.figures.FIGURES` runs on
``test-small`` in two settings, and its saved ``.txt`` and ``.json``
must equal the files under ``tests/golden/``:

- ``figures_tiny/``: the TINY profile, no faults, one journaled runner
  for the whole sweep (in registry order, like ``repro figure all``
  followed by the tournament); the journal bytes are pinned too, so the
  order in which the figures run their cells is part of the contract.
  The sweep runs serially and with ``workers=4``.
- ``figures_compaction/``: the SCALED profile under
  ``compaction:1.0``.  Failed cells must show as ``FAILED(compaction)``
  values.  ``fig07b``'s oversubscribed level leaves negative free
  memory on ``test-small`` and raises; its exception text is pinned in
  ``fig07b.error``.

Re-capture (only when a figure's output is *intended* to change) with::

    REPRO_REFRESH_GOLDEN=1 python -m pytest tests/test_figure_goldens.py
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.config import scaled, tiny
from repro.errors import ReproError
from repro.experiments.figures import FIGURES
from repro.experiments.harness import ExperimentRunner
from repro.experiments.runconfig import RunConfig
from repro.faults import FaultPlan

GOLDEN = pathlib.Path(__file__).parent / "golden"
DATASETS = ("test-small",)
JOURNAL = "journal.jsonl"


def _sweep(directory: pathlib.Path, setting: str, workers: int = 1) -> None:
    """Run every figure in ``setting`` and save its files (and the
    journal, or a raised figure's error text) under ``directory``."""
    directory.mkdir(parents=True, exist_ok=True)
    if setting == "tiny":
        run_config = RunConfig(
            workers=workers, journal=str(directory / JOURNAL)
        )
        runner = ExperimentRunner(
            config=tiny(), run_config=run_config, datasets=DATASETS
        )
    else:
        plan = FaultPlan.parse("compaction:1.0")
        runner = ExperimentRunner(
            config=scaled(),
            run_config=RunConfig(workers=workers, faults=plan),
            datasets=DATASETS,
        )
    try:
        for figure_id, function in FIGURES.items():
            try:
                function(runner).save(str(directory))
            except ReproError as error:
                (directory / f"{figure_id}.error").write_text(
                    f"{type(error).__name__}: {error}\n"
                )
    finally:
        if runner.run_config.journal is not None:
            runner.run_config.journal.close()


def _files(directory: pathlib.Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in directory.iterdir()}


def test_refresh_golden():
    """Re-capture the golden files (opt-in via REPRO_REFRESH_GOLDEN)."""
    if not os.environ.get("REPRO_REFRESH_GOLDEN"):
        pytest.skip("set REPRO_REFRESH_GOLDEN=1 to re-capture goldens")
    for setting in ("tiny", "compaction"):
        directory = GOLDEN / f"figures_{setting}"
        for path in directory.glob("*"):
            path.unlink()
        _sweep(directory, setting)


@pytest.mark.parametrize(
    "setting, workers",
    [("tiny", 1), ("tiny", 4), ("compaction", 1)],
)
def test_figures_match_golden(tmp_path, setting, workers):
    _sweep(tmp_path, setting, workers)
    produced = _files(tmp_path)
    expected = _files(GOLDEN / f"figures_{setting}")
    assert sorted(produced) == sorted(expected)
    for name, data in expected.items():
        assert produced[name] == data, name
