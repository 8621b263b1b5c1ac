"""Blocking client for the experiment service.

:class:`ServiceClient` speaks the versioned wire contract defined in
:mod:`repro.service.schema` against a running ``python -m repro serve``
instance (or an in-process :func:`repro.service.serve_in_thread`
handle). It is deliberately stdlib-only -- ``http.client`` for the
JSON endpoints, a raw socket for the WebSocket event stream -- so any
environment that can import :mod:`repro` can drive a remote service.

The headline call is :meth:`ServiceClient.submit_and_wait`: build a
:class:`~repro.service.schema.JobSpec`, submit it, wait for the
terminal state, and return the :class:`~repro.service.schema.JobResult`
whose ``document`` serializes byte-identically to a local ``repro run``
of the same grid.

Transient transport failures -- connection refused while the service
restarts, a reset mid-request -- are retried with exponential backoff
under a :class:`~repro.engine.resilience.RetryPolicy` (pass
``retry_policy=None`` to fail fast; ``repro submit --no-retry`` does).
Only ``code="connection"`` errors retry: an error envelope the server
actually produced is an answer, not an outage.
"""

from __future__ import annotations

import http.client
import json
import socket
import time
import urllib.parse
from typing import Any, Dict, Iterable, Iterator, List, Optional

from repro.core.records import loads
from repro.engine.resilience import RetryPolicy
from repro.errors import ServiceError
from repro.service import wire
from repro.service.schema import (
    JobResult,
    JobSpec,
    SubmitRequest,
    decode_job,
    envelope_error,
)


#: Backoff for transient transport failures: 4 attempts over ~1.75s
#: (0.25, 0.5, 1.0), tuned to ride out a service restart.
DEFAULT_RETRY_POLICY = RetryPolicy(
    max_attempts=4, base_delay_s=0.25, multiplier=2.0, max_delay_s=2.0
)


class ServiceClient:
    """Typed access to one experiment service at ``base_url``.

    ``timeout_s`` bounds each HTTP round trip (not whole jobs -- waiting
    for a job polls with bounded requests). Raises
    :class:`~repro.errors.ServiceError` for error envelopes the server
    returns and for transport failures (``code="connection"``).

    ``retry_policy`` governs transparent retry of *transport* failures
    (connection refused/reset before a response arrived); pass ``None``
    to disable and surface the first failure immediately.
    """

    def __init__(
        self, base_url: str, timeout_s: float = 30.0,
        client_id: str = "client",
        retry_policy: Optional[RetryPolicy] = DEFAULT_RETRY_POLICY,
    ) -> None:
        parsed = urllib.parse.urlsplit(base_url)
        if parsed.scheme not in ("http", ""):
            raise ServiceError(
                f"unsupported scheme {parsed.scheme!r} (http only)",
                code="bad-request",
            )
        netloc = parsed.netloc or parsed.path
        host, _, port = netloc.partition(":")
        self.host = host or "127.0.0.1"
        self.port = int(port) if port else 80
        self.timeout_s = timeout_s
        self.client_id = client_id
        self.retry_policy = retry_policy

    @property
    def base_url(self) -> str:
        """The service root this client talks to."""
        return f"http://{self.host}:{self.port}"

    # -- transport ---------------------------------------------------------

    def _request(
        self, method: str, path: str, payload: Optional[Dict[str, Any]] = None
    ) -> Dict[str, Any]:
        """One logical round trip, with transient-failure retry.

        Retries only ``code="connection"`` failures -- the service was
        unreachable, so the request cannot have been half-applied in a
        way retries would compound (submits are content-addressed and
        coalesce server-side, making them safe to repeat). Error
        envelopes and decode failures surface immediately.
        """
        policy = self.retry_policy
        attempts = policy.max_attempts if policy is not None else 1
        failure: Optional[ServiceError] = None
        for attempt in range(1, attempts + 1):
            try:
                return self._request_once(method, path, payload)
            except ServiceError as exc:
                if exc.code != "connection" or attempt == attempts:
                    raise
                failure = exc
                time.sleep(policy.delay_s(attempt))
        raise failure  # pragma: no cover - loop always returns or raises

    def _request_once(
        self, method: str, path: str, payload: Optional[Dict[str, Any]] = None
    ) -> Dict[str, Any]:
        """A single HTTP round trip with no retry."""
        body = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            body = json.dumps(payload, sort_keys=True).encode("utf-8")
            headers["Content-Type"] = "application/json"
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout_s
        )
        try:
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            status = response.status
            text = response.read().decode("utf-8", errors="replace")
        except (OSError, http.client.HTTPException) as exc:
            raise ServiceError(
                f"{method} {path} failed: {exc}", code="connection"
            ) from exc
        finally:
            connection.close()
        decoded = loads(text, f"{method} {path} reply") if text.strip() else {}
        if status >= 400 or "error" in decoded:
            raise envelope_error(decoded, status=status)
        return decoded

    # -- service endpoints -------------------------------------------------

    def meta(self) -> Dict[str, Any]:
        """Service metadata: schema/library version, runnable experiments."""
        return self._request("GET", "/v1/meta")

    def health(self) -> Dict[str, Any]:
        """The liveness envelope (``status``, ``accepting``)."""
        return self._request("GET", "/v1/healthz")

    def metrics(self) -> Dict[str, Any]:
        """The server's metrics-registry snapshot."""
        return self._request("GET", "/v1/metrics")

    def jobs(self) -> List[Dict[str, Any]]:
        """Status envelopes for every job the server knows."""
        return list(self._request("GET", "/v1/jobs").get("jobs", []))

    def job(self, job_id: str) -> Dict[str, Any]:
        """One job's decoded status envelope (embeds the result when done)."""
        return decode_job(self._request("GET", f"/v1/jobs/{job_id}"))

    def events(self, job_id: str) -> List[Dict[str, Any]]:
        """The job's event backlog via plain GET (no streaming)."""
        return list(
            self._request("GET", f"/v1/jobs/{job_id}/events")
            .get("events", [])
        )

    def shutdown(self) -> Dict[str, Any]:
        """Ask the server to drain in-flight jobs and stop."""
        return self._request("POST", "/v1/shutdown")

    def wait_until_ready(self, timeout_s: float = 30.0) -> Dict[str, Any]:
        """Poll ``/v1/healthz`` until the service answers, then return it."""
        deadline = time.monotonic() + timeout_s
        last: Optional[ServiceError] = None
        while time.monotonic() < deadline:
            try:
                return self.health()
            except ServiceError as exc:
                last = exc
                time.sleep(0.1)
        raise ServiceError(
            f"service at {self.base_url} not ready after {timeout_s}s: "
            f"{last}", code="connection",
        )

    # -- job submission ----------------------------------------------------

    def submit_request(self, request: SubmitRequest) -> Dict[str, Any]:
        """Submit a prebuilt request; returns the decoded job envelope."""
        return decode_job(
            self._request("POST", "/v1/jobs", request.to_dict())
        )

    def submit(
        self,
        experiments: "str | Iterable[str]",
        seeds: "int | Iterable[int]" = 1,
        overrides: Optional[Iterable[Dict[str, Any]]] = None,
        quick: bool = False,
        timeout_s: Optional[float] = 600.0,
        retries: int = 1,
        use_cache: bool = True,
    ) -> Dict[str, Any]:
        """Build and submit a :class:`JobSpec`; returns the job envelope.

        ``experiments`` / ``seeds`` follow :func:`repro.run_grid`
        conventions (``"all"`` expands, an int is a seed count).
        """
        if isinstance(experiments, str):
            experiments = [experiments]
        if isinstance(seeds, int):
            seeds = range(seeds)
        spec = JobSpec(
            experiments=tuple(experiments),
            seeds=tuple(int(s) for s in seeds),
            overrides=tuple(dict(o) for o in overrides or []) or ({},),
            quick=quick,
            timeout_s=timeout_s,
            retries=retries,
        )
        return self.submit_request(SubmitRequest(
            job=spec, client_id=self.client_id, use_cache=use_cache
        ))

    def wait(
        self, job_id: str, timeout_s: float = 600.0,
        poll_interval_s: float = 0.1,
    ) -> Dict[str, Any]:
        """Poll until the job is terminal; returns its final envelope."""
        deadline = time.monotonic() + timeout_s
        while True:
            envelope = self.job(job_id)
            if envelope["state"] in ("done", "failed"):
                return envelope
            if time.monotonic() >= deadline:
                raise ServiceError(
                    f"job {job_id} still {envelope['state']!r} after "
                    f"{timeout_s}s", code="timeout",
                )
            time.sleep(poll_interval_s)

    def result(self, job_id: str, timeout_s: float = 600.0) -> JobResult:
        """Wait for the job and decode its :class:`JobResult`.

        A ``failed`` job with no result document (the grid never ran)
        raises; a ``failed`` job *with* a document returns it, so
        callers can inspect which shards failed.
        """
        envelope = self.wait(job_id, timeout_s=timeout_s)
        record = envelope.get("result")
        if record is None:
            raise ServiceError(
                f"job {job_id} {envelope['state']}: "
                f"{envelope.get('error_detail') or 'no result document'}",
                code="job-failed",
            )
        return JobResult.from_dict(record)

    def submit_and_wait(
        self, experiments: "str | Iterable[str]", timeout_s: float = 600.0,
        **submit_kwargs: Any,
    ) -> JobResult:
        """Submit a grid and block until its :class:`JobResult` is ready."""
        envelope = self.submit(experiments, **submit_kwargs)
        return self.result(envelope["job_id"], timeout_s=timeout_s)

    # -- event streaming ---------------------------------------------------

    def stream_events(
        self, job_id: str, timeout_s: float = 600.0
    ) -> Iterator[Dict[str, Any]]:
        """Yield the job's events over a WebSocket until end-of-stream.

        Yields the backlog first, then live events; returns when the
        server closes the stream (job terminal) or the socket times out.
        """
        sock = socket.create_connection(
            (self.host, self.port), timeout=timeout_s
        )
        try:
            key = "cmVwcm8tc2VydmljZS1ldnQ="  # any base64 nonce works
            handshake = (
                f"GET /v1/jobs/{job_id}/events HTTP/1.1\r\n"
                f"Host: {self.host}:{self.port}\r\n"
                "Upgrade: websocket\r\n"
                "Connection: Upgrade\r\n"
                f"Sec-WebSocket-Key: {key}\r\n"
                "Sec-WebSocket-Version: 13\r\n"
                "\r\n"
            )
            sock.sendall(handshake.encode("latin-1"))
            stream = sock.makefile("rb")
            status_line = stream.readline().decode("latin-1", "replace")
            accept = ""
            while True:
                line = stream.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                if name.strip().lower() == "sec-websocket-accept":
                    accept = value.strip()
            if "101" not in status_line:
                raise ServiceError(
                    f"WebSocket upgrade refused: {status_line.strip()}",
                    code="connection",
                )
            if accept != wire.websocket_accept_key(key):
                raise ServiceError(
                    "WebSocket handshake returned a bad accept key",
                    code="connection",
                )
            while True:
                frame = wire.read_frame_blocking(stream)
                if frame is None:
                    return
                opcode, payload = frame
                if opcode == wire.OP_CLOSE:
                    return
                if opcode == wire.OP_PING:
                    sock.sendall(wire.encode_frame(
                        payload, opcode=wire.OP_PONG, mask=True
                    ))
                    continue
                if opcode != wire.OP_TEXT:
                    continue
                yield loads(payload, f"event frame for {job_id}")
        except (OSError, EOFError) as exc:
            raise ServiceError(
                f"event stream for {job_id} failed: {exc}", code="connection"
            ) from exc
        finally:
            sock.close()
