"""Result records for runnable experiments.

A :class:`RunResult` is the unit of output of one experiment shard --
one ``(experiment, seed, config)`` execution. It carries the headline
metrics the experiment produced plus the execution status (``ok``,
``error``, ``timeout`` or ``crashed``) and, for failed shards, the
captured traceback, so a sweep never dies with a half-written report.
``crashed`` is the hard-death state: the worker process executing the
shard died without reporting (SIGKILL, OOM) on enough attempts that the
pool quarantined the shard rather than keep feeding it workers.

A :class:`GridResult` is the merged output of a whole sweep. Its JSON
serialization is *canonical*: shards are ordered by grid position and
only deterministic fields are written, so the same grid produces
byte-identical ``results.json`` regardless of worker count or cache
state. Wall-clock timings and cache provenance are runtime-only
attributes, deliberately excluded.

Both records decode through :func:`repro.core.records.decode` against
their ``FIELDS`` tables: a cache entry, journal row or reply document
that does not decode raises :class:`~repro.errors.RecordError`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, ClassVar, Dict, List, Optional

from repro.core.atomicio import atomic_write_json
from repro.core.records import REQUIRED, Fields, decode, list_of, of, one_of

#: The terminal shard states. ``crashed`` means the shard repeatedly
#: killed its worker process and was quarantined by the pool.
RUN_STATUSES = ("ok", "error", "timeout", "crashed")

#: Identifier of the canonical merged-results document format.
RESULTS_SCHEMA = "repro.runner/results/v1"


@dataclass
class RunResult:
    """The outcome of one experiment shard.

    ``seed`` is the user-facing grid seed; entrypoints blend it into
    their own base seeds so seed 0 reproduces the benchmark-suite
    numbers exactly. ``cached`` and ``wall_s`` describe *this* process's
    view of the run (was it served from the on-disk cache, how long did
    it take) and are never serialized. So is ``retryable``: false when
    the shard failed with a :class:`~repro.errors.ReproError`, which a
    rerun of the same config and seed raises again, so the pool does not
    retry it.
    """

    experiment_id: str
    seed: int
    config: Dict[str, Any] = field(default_factory=dict)
    metrics: Dict[str, Any] = field(default_factory=dict)
    status: str = "ok"
    error: Optional[str] = None
    attempts: int = 1
    cached: bool = field(default=False, compare=False)
    wall_s: float = field(default=0.0, compare=False)
    retryable: bool = field(default=True, compare=False)

    #: The wire fields (the keys of :meth:`to_dict`).
    FIELDS: ClassVar[Fields] = {
        "experiment": (of(str), REQUIRED),
        "seed": (of(int), REQUIRED),
        "config": (of(dict), {}),
        "status": (one_of(*RUN_STATUSES), "ok"),
        "attempts": (of(int), 1),
        "error": (of(str, type(None)), None),
        "metrics": (of(dict), {}),
    }

    def __post_init__(self) -> None:
        if self.status not in RUN_STATUSES:
            raise ValueError(
                f"status must be one of {RUN_STATUSES}, got {self.status!r}"
            )

    @property
    def ok(self) -> bool:
        """Whether the shard completed without error or timeout."""
        return self.status == "ok"

    def to_dict(self) -> Dict[str, Any]:
        """Deterministic plain-dict form (the ``results.json`` row).

        Excludes runtime-only fields (``cached``, ``wall_s``,
        ``retryable``) so serialized results are identical whether
        recomputed or replayed from cache, at any worker count.
        """
        return {
            "experiment": self.experiment_id,
            "seed": self.seed,
            "config": dict(self.config),
            "status": self.status,
            "attempts": self.attempts,
            "error": self.error,
            "metrics": dict(self.metrics),
        }

    @classmethod
    def from_dict(cls, record: Dict[str, Any]) -> "RunResult":
        """Rebuild a result from :meth:`to_dict` output.

        Raises :class:`~repro.errors.RecordError` for a record that does
        not decode against :attr:`FIELDS`.
        """
        run = decode(record, "run result", cls.FIELDS)
        run["experiment_id"] = run.pop("experiment")
        return cls(**run)

    def canonical_json(self) -> str:
        """Sorted-keys JSON of :meth:`to_dict` (cache payload format)."""
        return json.dumps(self.to_dict(), sort_keys=True)


@dataclass
class GridResult:
    """Merged results of one sweep, in grid order.

    ``stats`` holds runtime bookkeeping (cache hits, recomputes,
    retries); it is reported to the user but excluded from
    :meth:`write_json` so the artifact stays canonical.
    """

    results: List[RunResult] = field(default_factory=list)
    stats: Dict[str, int] = field(default_factory=dict)

    #: The wire fields. The header fields are checked but not used:
    #: they are derived from the rows.
    FIELDS: ClassVar[Fields] = {
        "schema": (one_of(RESULTS_SCHEMA), REQUIRED),
        "n_runs": (of(int), 0),
        "n_ok": (of(int), 0),
        "experiments": (list_of(of(str)), []),
        "results": (list_of(of(dict)), []),
    }

    def __len__(self) -> int:
        return len(self.results)

    @property
    def n_ok(self) -> int:
        """Number of shards that completed cleanly."""
        return sum(1 for r in self.results if r.ok)

    @property
    def failures(self) -> List[RunResult]:
        """The shards that errored or timed out, in grid order."""
        return [r for r in self.results if not r.ok]

    @property
    def all_ok(self) -> bool:
        """Whether every shard completed cleanly."""
        return not self.failures

    def to_dict(self) -> Dict[str, Any]:
        """The canonical document written to ``results.json``."""
        return {
            "schema": RESULTS_SCHEMA,
            "n_runs": len(self.results),
            "n_ok": self.n_ok,
            "experiments": sorted({r.experiment_id for r in self.results}),
            "results": [r.to_dict() for r in self.results],
        }

    @classmethod
    def from_dict(cls, document: Dict[str, Any]) -> "GridResult":
        """Rebuild a grid from :meth:`to_dict` output.

        The header fields (``n_runs``, ``n_ok``, ``experiments``) are
        derived from the rows, so a round trip through
        :meth:`to_dict` -> :meth:`from_dict` -> :meth:`write_json`
        reproduces the serialized document byte for byte -- the property
        the service client relies on. Raises
        :class:`~repro.errors.RecordError` on a schema mismatch or any
        row that does not decode.
        """
        grid = decode(document, "results document", cls.FIELDS)
        return cls(results=[RunResult.from_dict(r) for r in grid["results"]])

    def write_json(self, path: "str | Path") -> Path:
        """Atomically write the canonical merged document to ``path``.

        Routed through :func:`repro.core.atomicio.atomic_write_json` so
        an interrupted run never leaves a truncated ``results.json`` --
        the previous artifact survives until the new one is complete.
        """
        return atomic_write_json(Path(path), self.to_dict())
