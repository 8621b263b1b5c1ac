"""Every registered output, pinned by digest.

One grid runs every :func:`~repro.runner.runnable_experiments` id at its
``--quick`` size for seeds 0 and 1, and the SHA-256 of each result
record's canonical JSON (:meth:`~repro.runner.results.RunResult.canonical_json`)
must equal the committed table in ``golden/registered_outputs.json``.
A change that moves any number of any exhibit fails here, whether or
not a bench band would catch it.

A change that means to move a number re-records only that id and gives
old -> new in EXPERIMENTS.md. To print the current table::

    PYTHONPATH=src python tests/test_registered_outputs.py
"""

import hashlib
import json
from pathlib import Path

from repro.runner import run_grid, runnable_experiments

TABLE = Path(__file__).parent / "golden" / "registered_outputs.json"

SEEDS = (0, 1)


def record_digests(jobs: int = 2) -> dict:
    """``{experiment: {seed: sha256}}`` for one fresh quick grid."""
    grid = run_grid("all", seeds=list(SEEDS), quick=True, use_cache=False,
                    retries=0, jobs=jobs)
    table: dict = {}
    for result in grid.results:
        digest = hashlib.sha256(result.canonical_json().encode()).hexdigest()
        table.setdefault(result.experiment_id, {})[str(result.seed)] = digest
    return table


def test_every_registered_output_matches_its_digest():
    expected = json.loads(TABLE.read_text())
    assert sorted(expected) == sorted(runnable_experiments())
    actual = record_digests()
    moved = sorted(
        f"{exp}/seed {seed}"
        for exp, seeds in expected.items()
        for seed, digest in seeds.items()
        if actual.get(exp, {}).get(seed) != digest
    )
    assert not moved, f"outputs moved: {moved}"


if __name__ == "__main__":
    print(json.dumps(record_digests(), indent=2, sort_keys=True))
