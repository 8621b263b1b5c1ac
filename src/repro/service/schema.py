"""The versioned service API contract: typed requests and responses.

Every message that crosses the service boundary is one of the
dataclasses here, serialized as stable JSON (sorted keys) and stamped
with :data:`SCHEMA_VERSION`. The compatibility rule is semver-style on
``MAJOR.MINOR``:

- a peer speaking a different **major** version is rejected with an
  ``unsupported-version`` error envelope;
- **minor** skew is accepted -- minor bumps may only *add* optional
  fields, and decoders ignore unknown keys.

Each record states its wire fields once, as a ``FIELDS`` table decoded
by :func:`repro.core.records.decode`: any malformed record -- not an
object, a required field missing, a value of the wrong kind -- raises
:class:`~repro.errors.RecordError`, the 400 ``bad-request`` envelope on
the wire. The schema version is checked first, so a peer with the wrong
major version gets ``unsupported-version`` whatever else it sent.

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
from dataclasses import dataclass, field, replace
from typing import Any, ClassVar, Dict, List, Optional, Tuple

from repro.core.records import (
    REAL,
    REQUIRED,
    Check,
    Fields,
    decode,
    list_of,
    loads,
    of,
    one_of,
)
from repro.errors import RecordError, ServiceError

#: The wire-format version: ``MAJOR.MINOR``. Peers must match MAJOR.
#: 1.1 added the ``recovered`` job state (crash-recovery re-admission).
SCHEMA_VERSION = "1.1"

#: Terminal and in-flight job states the service reports. ``recovered``
#: is the in-flight state of a job re-admitted from the service journal
#: after a restart, before its grid starts running again.
JOB_STATES = ("queued", "recovered", "running", "done", "failed")


def check_schema_version(version: Any) -> str:
    """Validate a peer's ``schema_version`` against :data:`SCHEMA_VERSION`.

    Returns the version string when the major components match; raises
    an ``unsupported-version`` :class:`ServiceError` otherwise, and a
    :class:`~repro.errors.RecordError` when it is not a non-empty string.
    """
    if not isinstance(version, str) or not version:
        raise RecordError("schema_version missing")
    if version.split(".", 1)[0] != SCHEMA_VERSION.split(".", 1)[0]:
        raise ServiceError(
            f"schema_version {version!r} is incompatible with "
            f"{SCHEMA_VERSION!r} (major must match)",
            code="unsupported-version",
            status=400,
        )
    return version


#: The version field every record checks first.
_VERSION = Check(check_schema_version, "a MAJOR.MINOR version")

_INT = of(int)
_NAME = Check(lambda name: isinstance(name, str) and name != "",
              "a non-empty string")


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
    the per-shard execution policy. A direct construction is checked
    against the same table as the wire form.
    """

    experiments: Tuple[str, ...]
    seeds: Tuple[int, ...] = (0,)
    overrides: Tuple[Dict[str, Any], ...] = ({},)
    quick: bool = False
    timeout_s: Optional[float] = 600.0
    retries: int = 1

    #: The wire fields. An absent or empty ``overrides`` decodes to
    #: ``({},)``, one run per experiment and seed with no overrides.
    FIELDS: ClassVar[Fields] = {
        "experiments": (list_of(_NAME), REQUIRED),
        "seeds": (list_of(_INT), [0]),
        "overrides": (list_of(of(dict)), []),
        "quick": (of(bool), False),
        "timeout_s": (
            Check(lambda t: t is None or (REAL.test(t) and t > 0),
                  "a positive number or null"),
            600.0,
        ),
        "retries": (Check(lambda r: _INT.test(r) and r >= 0,
                          "an integer >= 0"), 1),
    }

    def __post_init__(self) -> None:
        decode(self.__dict__, "job spec", self.FIELDS)
        for name in ("experiments", "seeds", "overrides"):
            if not getattr(self, name):
                raise RecordError(f"job spec field {name!r} must be non-empty")

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
        return replace(self, experiments=resolved)

    def job_id(self) -> str:
        """SHA-256 hex digest of the canonicalized spec (coalescing key)."""
        return hashlib.sha256(
            stable_json(self.canonical().to_dict()).encode("utf-8")
        ).hexdigest()

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict wire form: the :attr:`FIELDS`, tuples as lists."""
        wire = {name: getattr(self, name) for name in self.FIELDS}
        return {**wire, "experiments": list(self.experiments),
                "seeds": list(self.seeds),
                "overrides": [dict(o) for o in self.overrides]}

    @classmethod
    def from_dict(cls, record: Dict[str, Any]) -> "JobSpec":
        """Decode and validate a wire-form spec (unknown keys ignored)."""
        spec = decode(record, "job spec", cls.FIELDS)
        timeout_s = spec["timeout_s"]
        return cls(
            experiments=tuple(spec["experiments"]),
            seeds=tuple(spec["seeds"]),
            overrides=tuple(spec["overrides"]) or ({},),
            quick=spec["quick"],
            timeout_s=None if timeout_s is None else float(timeout_s),
            retries=spec["retries"],
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

    #: The wire fields; the version is checked before the others.
    FIELDS: ClassVar[Fields] = {
        "schema_version": (_VERSION, REQUIRED),
        "client_id": (_NAME, "anonymous"),
        "use_cache": (of(bool), True),
        "job": (of(dict), REQUIRED),
    }

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict wire form: the :attr:`FIELDS`, the job as its own."""
        wire = {name: getattr(self, name) for name in self.FIELDS}
        return {**wire, "job": self.job.to_dict()}

    @classmethod
    def from_dict(cls, record: Dict[str, Any]) -> "SubmitRequest":
        """Decode and validate a wire-form request."""
        request = decode(record, "submit request", cls.FIELDS)
        request["job"] = JobSpec.from_dict(request["job"])
        return cls(**request)


def decode_submit_request(text: "str | bytes") -> SubmitRequest:
    """Parse a JSON request body into a validated :class:`SubmitRequest`."""
    if isinstance(text, bytes):
        text = text.decode("utf-8", errors="replace")
    return SubmitRequest.from_dict(loads(text, "submit request"))


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

    #: The wire fields, also checked on direct construction.
    FIELDS: ClassVar[Fields] = {
        "schema_version": (_VERSION, SCHEMA_VERSION),
        "job_id": (of(str), ""),
        "status": (one_of("ok", "failed"), "ok"),
        "stats": (of(dict), {}),
        "document": (of(dict), {}),
    }

    def __post_init__(self) -> None:
        decode(self.__dict__, "job result", self.FIELDS)

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
        """Plain-dict wire form: the :attr:`FIELDS`."""
        return {name: getattr(self, name) for name in self.FIELDS}

    @classmethod
    def from_dict(cls, record: Dict[str, Any]) -> "JobResult":
        """Decode a wire-form result."""
        return cls(**decode(record, "job result", cls.FIELDS))


def error_envelope(code: str, message: str) -> Dict[str, Any]:
    """The explicit error response shape every endpoint shares."""
    return {
        "schema_version": SCHEMA_VERSION,
        "error": {"code": code, "message": message},
    }


#: The ``error`` object of an error envelope.
_ERROR_FIELDS: Fields = {
    "code": (of(str), "error"),
    "message": (of(str), "service error"),
}


def envelope_error(payload: Dict[str, Any], status: int = 0) -> ServiceError:
    """Rebuild the :class:`ServiceError` a received envelope describes.

    Raises :class:`~repro.errors.RecordError` when the envelope's
    ``error`` is not an object of string ``code`` and ``message``.
    """
    detail = decode(
        payload.get("error") or {}, "error envelope", _ERROR_FIELDS
    )
    return ServiceError(detail["message"], code=detail["code"], status=status)


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


#: The fields of the job-status envelope :func:`job_envelope` builds;
#: the optional ones are absent unless the job has them.
JOB_FIELDS: Fields = {
    "schema_version": (_VERSION, SCHEMA_VERSION),
    "job_id": (_NAME, REQUIRED),
    "state": (one_of(*JOB_STATES), REQUIRED),
    "coalesced": (_INT, 0),
    "stats": (of(dict), None),
    "result": (of(dict), None),
    "error_detail": (of(str), None),
    "events": (list_of(of(dict)), None),
}


def decode_job(record: Any) -> Dict[str, Any]:
    """``record``, a received job-status envelope, once it passes
    :data:`JOB_FIELDS`; else a :class:`~repro.errors.RecordError`.

    The envelope comes back as received: an optional field it lacks
    stays absent.
    """
    decode(record, "job envelope", JOB_FIELDS)
    return record
