"""Exception hierarchy for the rethinkbig reproduction library."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library-specific errors.

    A shard that fails with one fails the same way on every rerun of its
    config and seed, so the runner's pool records the first failure
    instead of spending its retry budget on it.
    """


class SimulationError(ReproError):
    """Raised when the discrete-event simulation reaches an invalid state."""


class ProcessFailure(SimulationError):
    """An exception escaped a simulation process generator.

    Wraps the original exception (available as ``__cause__``) with the
    context the raw traceback loses: which process crashed and at what
    virtual time.
    """

    def __init__(
        self, message: str, process_name: str = "", sim_time: float = 0.0
    ) -> None:
        super().__init__(message)
        self.process_name = process_name
        self.sim_time = sim_time


class DeadlineExceeded(SimulationError):
    """Raised in a waiter when an event misses its deadline.

    Produced by :func:`repro.engine.resilience.with_deadline` when the
    wrapped event does not fire within the allotted virtual time.
    """

    def __init__(self, message: str, deadline_s: float = 0.0) -> None:
        super().__init__(message)
        self.deadline_s = deadline_s


class RetryExhausted(SimulationError):
    """All attempts of a retried operation failed.

    Raised by :func:`repro.engine.resilience.retry_events` once the
    policy's attempt budget is spent; the last attempt's exception is
    chained as ``__cause__``.
    """

    def __init__(self, message: str, attempts: int = 0) -> None:
        super().__init__(message)
        self.attempts = attempts


class FaultError(ReproError):
    """A simulated component is unavailable due to an injected fault."""


class TopologyError(ReproError):
    """Raised for malformed network topologies or unroutable paths."""


class SchedulingError(ReproError):
    """Raised when a job cannot be scheduled onto the available devices."""


class PlanError(ReproError):
    """Raised for invalid dataflow plans (unknown operators, bad arity)."""


class ModelError(ReproError):
    """Raised when an analytical model is given out-of-domain parameters."""


class ConfigError(ModelError):
    """Raised for a run setting out of its domain.

    A run's config naming a key no default has, or a runner setting
    that cannot be honoured: a worker or seed count below 1, a negative
    retry budget, a non-positive timeout, or a resume without a cache
    dir.
    """


class RegistryError(ReproError):
    """Raised for missing or duplicate entries in library registries."""


class JournalError(ReproError):
    """Raised when a job journal is unreadable or inconsistent.

    ``offset`` is the byte offset of the first record that could not be
    accepted (-1 when the failure is not positional, e.g. a grid
    identity mismatch), so operators can inspect exactly where an
    append-only journal went bad.
    """

    def __init__(self, message: str, offset: int = -1) -> None:
        super().__init__(message)
        self.offset = offset


class ServiceError(ReproError):
    """Raised for experiment-service failures, carrying the wire error code.

    ``code`` is the machine-readable error identifier from the service's
    error envelope (``bad-request``, ``unsupported-version``, ``shed``,
    ``client-cap``, ``shutting-down``, ``not-found``, ``connection``);
    ``status`` is the HTTP status the server attached (0 for client-side
    failures that never reached the server).
    """

    def __init__(
        self, message: str, code: str = "error", status: int = 0
    ) -> None:
        super().__init__(message)
        self.code = code
        self.status = status


class RecordError(ServiceError):
    """A record read from outside the process does not decode.

    Raised by :func:`repro.core.records.decode` for a job spec, submit
    request, job result, results document, cache entry or journal row
    that is not JSON, not an object, lacks a required field or holds a
    value of the wrong kind; the message names the record and the
    failing field. A ``bad-request`` with status 400, so the service
    answers it with its error envelope unchanged.
    """

    def __init__(self, message: str) -> None:
        super().__init__(message, code="bad-request", status=400)
