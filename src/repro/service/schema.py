"""The versioned service API contract: typed requests and responses.

Every message that crosses the service boundary is one of the
dataclasses here, serialized as stable JSON (sorted keys) and stamped
with :data:`SCHEMA_VERSION`. The compatibility rule is semver-style on
``MAJOR.MINOR``:

- a peer speaking a different **major** version is rejected with an
  ``unsupported-version`` error envelope;
- **minor** skew is accepted -- minor bumps may only *add* optional
  fields, and decoders ignore unknown keys.

:class:`JobSpec` is the content-addressed unit of work: an
``(experiments x seeds x config-overrides)`` grid plus its execution
policy (quick sizes, per-run timeout, retry budget). Its
:meth:`JobSpec.job_id` is the SHA-256 of the canonicalized spec, which
is what the server coalesces on: two in-flight submissions with equal
job ids share one run. :class:`SubmitRequest` wraps a spec with client
identity and cache policy; :class:`JobResult` carries the canonical
merged results document (byte-identical to ``repro run``'s
``results.json``) plus execution stats.

Everything here is dependency-free on purpose (stdlib + lazy registry
lookups), so the contract can be imported by clients without paying for
the engine.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ServiceError

#: The wire-format version: ``MAJOR.MINOR``. Peers must match MAJOR.
#: 1.1 added the ``recovered`` job state (crash-recovery re-admission).
SCHEMA_VERSION = "1.1"

#: Terminal and in-flight job states the service reports. ``recovered``
#: is the in-flight state of a job re-admitted from the service journal
#: after a restart, before its grid starts running again.
JOB_STATES = ("queued", "recovered", "running", "done", "failed")


def _require(condition: bool, message: str) -> None:
    """Raise a ``bad-request`` :class:`ServiceError` unless ``condition``."""
    if not condition:
        raise ServiceError(message, code="bad-request", status=400)


def check_schema_version(version: Any) -> str:
    """Validate a peer's ``schema_version`` against :data:`SCHEMA_VERSION`.

    Returns the version string when the major components match; raises
    an ``unsupported-version`` :class:`ServiceError` otherwise.
    """
    _require(isinstance(version, str) and version, "schema_version missing")
    major = version.split(".", 1)[0]
    ours = SCHEMA_VERSION.split(".", 1)[0]
    if major != ours:
        raise ServiceError(
            f"schema_version {version!r} is incompatible with "
            f"{SCHEMA_VERSION!r} (major must match)",
            code="unsupported-version",
            status=400,
        )
    return version


def stable_json(payload: Any) -> str:
    """The canonical wire encoding: sorted keys, compact separators."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class JobSpec:
    """One content-addressed experiment grid: what to run, how hard to try.

    ``experiments`` are registry ids (``"all"`` is allowed and expands
    during canonicalization); ``seeds`` is the explicit grid-seed list;
    ``overrides`` is a tuple of config dicts, each crossed with every
    experiment and seed. ``quick`` layers the registered smoke-test
    problem sizes under the overrides. ``timeout_s`` / ``retries`` are
    the per-shard execution policy.
    """

    experiments: Tuple[str, ...]
    seeds: Tuple[int, ...] = (0,)
    overrides: Tuple[Dict[str, Any], ...] = ({},)
    quick: bool = False
    timeout_s: Optional[float] = 600.0
    retries: int = 1

    def __post_init__(self) -> None:
        _require(bool(self.experiments), "experiments must be non-empty")
        _require(
            all(isinstance(e, str) and e for e in self.experiments),
            "experiments must be non-empty strings",
        )
        _require(bool(self.seeds), "seeds must be non-empty")
        _require(
            all(isinstance(s, int) and not isinstance(s, bool)
                for s in self.seeds),
            "seeds must be integers",
        )
        _require(bool(self.overrides), "overrides must be non-empty")
        _require(
            all(isinstance(o, dict) for o in self.overrides),
            "overrides must be config dicts",
        )
        _require(self.retries >= 0, "retries must be >= 0")
        _require(
            self.timeout_s is None or self.timeout_s > 0,
            "timeout_s must be positive or null",
        )

    def canonical(self) -> "JobSpec":
        """The registry-resolved form job identity is computed over.

        Expands ``"all"``, upper-cases and de-duplicates experiment ids
        (registry order), so ``e2`` and ``E2`` coalesce to the same job.
        Raises :class:`~repro.errors.RegistryError` for unknown ids.
        """
        from repro.runner.api import resolve_experiments

        resolved = tuple(
            e.experiment_id for e in resolve_experiments(list(self.experiments))
        )
        if resolved == self.experiments:
            return self
        return JobSpec(
            experiments=resolved,
            seeds=self.seeds,
            overrides=self.overrides,
            quick=self.quick,
            timeout_s=self.timeout_s,
            retries=self.retries,
        )

    def job_id(self) -> str:
        """SHA-256 hex digest of the canonicalized spec (coalescing key)."""
        return hashlib.sha256(
            stable_json(self.canonical().to_dict()).encode("utf-8")
        ).hexdigest()

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict wire form."""
        return {
            "experiments": list(self.experiments),
            "seeds": list(self.seeds),
            "overrides": [dict(o) for o in self.overrides],
            "quick": self.quick,
            "timeout_s": self.timeout_s,
            "retries": self.retries,
        }

    @classmethod
    def from_dict(cls, record: Dict[str, Any]) -> "JobSpec":
        """Decode and validate a wire-form spec (unknown keys ignored)."""
        _require(isinstance(record, dict), "job spec must be an object")
        experiments = record.get("experiments")
        _require(isinstance(experiments, (list, tuple)),
                 "experiments must be a list")
        seeds = record.get("seeds", [0])
        _require(isinstance(seeds, (list, tuple)), "seeds must be a list")
        overrides = record.get("overrides", [{}])
        _require(isinstance(overrides, (list, tuple))
                 and all(isinstance(o, dict) for o in overrides),
                 "overrides must be a list of objects")
        timeout_s = record.get("timeout_s", 600.0)
        # An int beyond the float range would overflow float().
        _require(timeout_s is None or isinstance(timeout_s, float)
                 or (type(timeout_s) is int
                     and abs(timeout_s) <= sys.float_info.max),
                 "timeout_s must be a number or null")
        retries = record.get("retries", 1)
        _require(type(retries) is int, "retries must be an integer")
        quick = record.get("quick", False)
        _require(isinstance(quick, bool), "quick must be a boolean")
        return cls(
            experiments=tuple(experiments),
            seeds=tuple(seeds),
            overrides=tuple(dict(o) for o in overrides) or ({},),
            quick=quick,
            timeout_s=None if timeout_s is None else float(timeout_s),
            retries=retries,
        )


@dataclass(frozen=True)
class SubmitRequest:
    """A job submission: the spec plus client identity and cache policy.

    ``client_id`` feeds the per-client admission cap; ``use_cache``
    false forces recompute (and stores nothing). ``schema_version`` is
    checked on decode (major must match).
    """

    job: JobSpec
    client_id: str = "anonymous"
    use_cache: bool = True
    schema_version: str = SCHEMA_VERSION

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict wire form."""
        return {
            "schema_version": self.schema_version,
            "client_id": self.client_id,
            "use_cache": self.use_cache,
            "job": self.job.to_dict(),
        }

    @classmethod
    def from_dict(cls, record: Dict[str, Any]) -> "SubmitRequest":
        """Decode and validate a wire-form request."""
        _require(isinstance(record, dict), "submit request must be an object")
        version = check_schema_version(record.get("schema_version"))
        client_id = record.get("client_id", "anonymous")
        _require(isinstance(client_id, str) and client_id,
                 "client_id must be a non-empty string")
        use_cache = record.get("use_cache", True)
        _require(isinstance(use_cache, bool), "use_cache must be a boolean")
        return cls(
            job=JobSpec.from_dict(record.get("job")),
            client_id=client_id,
            use_cache=use_cache,
            schema_version=version,
        )


def decode_submit_request(text: "str | bytes") -> SubmitRequest:
    """Parse a JSON request body into a validated :class:`SubmitRequest`."""
    if isinstance(text, bytes):
        text = text.decode("utf-8", errors="replace")
    try:
        record = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ServiceError(
            f"request body is not valid JSON: {exc}",
            code="bad-request", status=400,
        ) from exc
    return SubmitRequest.from_dict(record)


@dataclass
class JobResult:
    """The terminal outcome of one job: results document plus stats.

    ``document`` is the canonical merged results dict -- exactly what
    :meth:`repro.runner.GridResult.write_json` serializes, so a client
    that writes it back out produces ``results.json`` byte-identical to
    a local ``repro run`` of the same grid. ``status`` is ``"ok"`` when
    every shard completed, ``"failed"`` otherwise (per-shard errors stay
    inside the document). ``stats`` carries runtime bookkeeping
    (``recomputed``, ``cache_hits``, ``pool_spawns``, ...).
    """

    job_id: str
    status: str
    document: Dict[str, Any]
    stats: Dict[str, Any] = field(default_factory=dict)
    schema_version: str = SCHEMA_VERSION

    def __post_init__(self) -> None:
        _require(self.status in ("ok", "failed"),
                 f"job status must be ok|failed, got {self.status!r}")

    @property
    def ok(self) -> bool:
        """Whether every shard in the grid completed cleanly."""
        return self.status == "ok"

    def grid(self) -> "Any":
        """Rebuild the :class:`repro.runner.GridResult` from the document."""
        from repro.runner.results import GridResult

        grid = GridResult.from_dict(self.document)
        grid.stats = dict(self.stats)
        return grid

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict wire form."""
        return {
            "schema_version": self.schema_version,
            "job_id": self.job_id,
            "status": self.status,
            "stats": dict(self.stats),
            "document": self.document,
        }

    @classmethod
    def from_dict(cls, record: Dict[str, Any]) -> "JobResult":
        """Decode a wire-form result."""
        _require(isinstance(record, dict), "job result must be an object")
        check_schema_version(record.get("schema_version", SCHEMA_VERSION))
        job_id = record.get("job_id", "")
        _require(isinstance(job_id, str), "job_id must be a string")
        document = record.get("document", {})
        _require(isinstance(document, dict), "document must be an object")
        stats = record.get("stats", {})
        _require(isinstance(stats, dict), "stats must be an object")
        return cls(
            job_id=job_id,
            status=record.get("status", "ok"),
            document=dict(document),
            stats=dict(stats),
            schema_version=record.get("schema_version", SCHEMA_VERSION),
        )


def error_envelope(code: str, message: str) -> Dict[str, Any]:
    """The explicit error response shape every endpoint shares."""
    return {
        "schema_version": SCHEMA_VERSION,
        "error": {"code": code, "message": message},
    }


def envelope_error(payload: Dict[str, Any], status: int = 0) -> ServiceError:
    """Rebuild the :class:`ServiceError` a received envelope describes."""
    detail = payload.get("error") or {}
    return ServiceError(
        str(detail.get("message", "service error")),
        code=str(detail.get("code", "error")),
        status=status,
    )


def job_envelope(
    job_id: str,
    state: str,
    *,
    coalesced: int = 0,
    stats: Optional[Dict[str, Any]] = None,
    result: Optional[JobResult] = None,
    error: Optional[str] = None,
    events: Optional[List[Dict[str, Any]]] = None,
) -> Dict[str, Any]:
    """The job-status response shape (``POST /v1/jobs``, ``GET /v1/jobs/<id>``)."""
    if state not in JOB_STATES:
        raise ServiceError(
            f"job state must be one of {JOB_STATES}, got {state!r}",
            code="bad-request", status=500,
        )
    payload: Dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "job_id": job_id,
        "state": state,
        "coalesced": coalesced,
    }
    if stats is not None:
        payload["stats"] = dict(stats)
    if result is not None:
        payload["result"] = result.to_dict()
    if error is not None:
        payload["error_detail"] = error
    if events is not None:
        payload["events"] = list(events)
    return payload
