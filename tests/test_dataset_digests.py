"""Every registered dataset builds bit-identically to the golden.

``tests/golden/dataset_digests.json`` holds the SHA-256 of each
``(indptr, indices, weights)`` triple for every ``DATASETS`` entry,
unweighted and weighted, plus the numpy version that produced them.
The graphs come from numpy's ``Generator`` streams, so a mismatch under
a different numpy version may be numpy's change rather than ours; the
failure message names both versions.

Regenerate (only when a generator change is *meant* to alter a graph)::

    PYTHONPATH=src python tests/test_dataset_digests.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.graph.csr import CsrGraph
from repro.graph.datasets import DATASETS

GOLDEN = Path(__file__).parent / "golden" / "dataset_digests.json"


def graph_digest(graph: CsrGraph) -> str:
    """SHA-256 over the dtype, shape and bytes of each CSR array."""
    h = hashlib.sha256()
    for array in (graph.indptr, graph.indices, graph.weights):
        if array is None:
            h.update(b"none;")
            continue
        h.update(f"{array.dtype.str}{array.shape};".encode())
        h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()


def _key(name: str, weighted: bool) -> str:
    return f"{name}/{'weighted' if weighted else 'unweighted'}"


def compute_digests() -> dict[str, str]:
    """Build every dataset fresh (bypassing the in-process cache)."""
    return {
        _key(name, weighted): graph_digest(spec.build(weighted))
        for name, spec in DATASETS.items()
        for weighted in (False, True)
    }


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_dataset():
    expected = {
        _key(name, weighted)
        for name in DATASETS
        for weighted in (False, True)
    }
    assert set(_golden()["digests"]) == expected


@pytest.mark.parametrize(
    "name,weighted",
    [(name, w) for name in DATASETS for w in (False, True)],
)
def test_dataset_matches_golden(name, weighted):
    golden = _golden()
    graph = DATASETS[name].build(weighted)
    assert graph_digest(graph) == golden["digests"][_key(name, weighted)], (
        f"{name} (weighted={weighted}) changed; golden taken under numpy "
        f"{golden['numpy']}, running {np.__version__}"
    )


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_dataset_digests.py --write")
    GOLDEN.write_text(
        json.dumps(
            {"numpy": np.__version__, "digests": compute_digests()},
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"wrote {GOLDEN}")
