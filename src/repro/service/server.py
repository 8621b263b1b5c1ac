"""The asyncio experiment service: admission, coalescing, streaming.

:class:`ExperimentService` owns a single-threaded asyncio event loop
that accepts HTTP requests, plus one worker thread pool on which
:func:`repro.runner.execute_job` grids actually run (the grid itself
fans out over pool worker processes, so the loop thread never blocks on
experiment compute). Each of the ``max_active`` grid slots owns one
:class:`~repro.runner.pool.WorkerPool` of ``jobs`` workers for the
service's lifetime, so fresh shards run on warm processes instead of
forking one per shard. The moving parts:

- **Admission control** -- a bounded queue (``max_pending`` queued
  jobs, excess submissions are shed with a ``429 shed`` envelope), a
  per-client in-flight cap (``per_client``, exceeded submissions get
  ``429 client-cap``), and an execution semaphore (``max_active``
  concurrent grids).
- **Request coalescing** -- jobs are keyed by the content-addressed
  :meth:`~repro.service.schema.JobSpec.job_id`; a submission whose key
  matches a queued or running job attaches to it instead of running
  again, and the job records how many submissions it absorbed.
- **Result caching** -- grids execute with the runner's on-disk SHA-256
  result cache in front, so a repeat submission of a completed job
  re-resolves entirely from cache: ``recomputed == 0`` and zero pool
  spawns.
- **Event streaming** -- every job keeps an ordered event log (status
  transitions, runner heartbeats, execution spans); subscribers get the
  backlog plus live events over a WebSocket, and a subscriber
  disconnecting never touches the job or its pool workers.
- **Crash recovery** -- with a ``cache_dir`` configured, every accepted
  job is appended to a write-ahead service journal
  (``<cache_dir>/service-journal.jsonl``, fsync'd before the 202 goes
  out) and journaled again on completion. A restarted service replays
  the journal and re-admits every job that was accepted but never
  finished, in the wire-visible ``recovered`` state; shards those jobs
  completed before the crash were cached as they finished, so recovery
  hands the pool no finished work. Recovered jobs count into
  ``service.jobs_recovered``.

Endpoints (all responses are ``schema_version``-stamped JSON):

========  ==========================  =====================================
method    path                        purpose
========  ==========================  =====================================
GET       ``/v1/meta``                service + schema version, experiments
GET       ``/v1/healthz``             liveness and accepting flag
GET       ``/v1/metrics``             metrics registry snapshot
GET       ``/v1/jobs``                all job envelopes (no documents)
GET       ``/v1/jobs/<id>``           one job envelope (+ result when done)
GET       ``/v1/jobs/<id>/events``    event backlog, or WebSocket upgrade
POST      ``/v1/jobs``                submit a grid (202 queued / 429 / 503)
POST      ``/v1/shutdown``            drain in-flight jobs, then stop
========  ==========================  =====================================
"""

from __future__ import annotations

import asyncio
import functools
import json
import queue
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.engine.observability import Registry
from repro.errors import ConfigError, ReproError, ServiceError
from repro.runner.journal import JournalWriter, read_journal
from repro.runner.pool import WorkerPool
from repro.service import wire
from repro.service.schema import (
    SCHEMA_VERSION,
    JobResult,
    SubmitRequest,
    decode_submit_request,
    error_envelope,
    job_envelope,
)


class Job:
    """One submitted grid: lifecycle state, event log, subscribers."""

    def __init__(self, job_id: str, request: SubmitRequest) -> None:
        self.job_id = job_id
        self.request = request
        self.state = "queued"
        self.coalesced = 0
        self.result: Optional[JobResult] = None
        self.error: Optional[str] = None
        self.events: List[Dict[str, Any]] = []
        self.subscribers: List[asyncio.Queue] = []
        self.done_event = asyncio.Event()
        self.task: Optional[asyncio.Task] = None
        self.started = time.perf_counter()

    @property
    def active(self) -> bool:
        """Whether the job is still in flight (coalescable).

        ``recovered`` counts: a re-admitted job is awaiting execution
        exactly like a queued one, so repeat submissions must attach to
        it rather than duplicate the run.
        """
        return self.state in ("queued", "recovered", "running")

    def publish(self, event: Dict[str, Any]) -> None:
        """Append ``event`` to the log and fan it out to subscribers.

        Must be called on the event-loop thread; worker-thread callers
        marshal through ``loop.call_soon_threadsafe``.
        """
        event = {
            "job_id": self.job_id,
            "seq": len(self.events),
            **event,
        }
        self.events.append(event)
        for queue in self.subscribers:
            queue.put_nowait(event)

    def finish_streams(self) -> None:
        """Push the end-of-stream sentinel to every subscriber."""
        for queue in self.subscribers:
            queue.put_nowait(None)

    def envelope(self, with_result: bool = False) -> Dict[str, Any]:
        """The job's status envelope, optionally embedding the result."""
        result = self.result if with_result and self.result else None
        return job_envelope(
            self.job_id,
            self.state,
            coalesced=self.coalesced,
            stats=self.result.stats if self.result else None,
            result=result,
            error=self.error,
        )


class ExperimentService:
    """The service: one event loop, one grid-executor pool, a job table.

    ``jobs`` is the worker-pool width each grid executes with (``1``:
    inline on the grid thread); ``max_active`` bounds how many grids
    execute concurrently, each on its own long-lived pool, so at most
    ``max_active * jobs`` worker processes exist;
    ``max_pending`` bounds the queued backlog; ``per_client`` bounds one
    client's queued+running jobs. ``cache_dir`` enables the on-disk
    result cache (strongly recommended: it is what makes repeat
    submissions free). All metrics land in ``registry`` under
    ``service.*`` and ``runner.*`` names. ``jobs``, ``max_pending``,
    ``max_active`` and ``per_client`` must each be at least 1, or
    :class:`~repro.errors.ConfigError` is raised before anything binds.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        jobs: int = 1,
        cache_dir: Optional[str] = None,
        max_pending: int = 16,
        max_active: int = 1,
        per_client: int = 4,
        registry: Optional[Registry] = None,
    ) -> None:
        for name, value in (("jobs", jobs), ("max_pending", max_pending),
                            ("max_active", max_active),
                            ("per_client", per_client)):
            if value < 1:
                raise ConfigError(f"{name} must be >= 1, got {value}")
        self.host = host
        self.port = port
        self.jobs = jobs
        self.cache_dir = cache_dir
        self.max_pending = max_pending
        self.max_active = max_active
        self.per_client = per_client
        self.registry = registry if registry is not None else Registry()
        self.accepting = True
        self.job_table: Dict[str, Job] = {}
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._active_sem: Optional[asyncio.Semaphore] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._pools: List[WorkerPool] = []
        self._free_pools: "queue.SimpleQueue[WorkerPool]" = (
            queue.SimpleQueue()
        )
        self._stopping: Optional[asyncio.Event] = None
        self._journal: Optional[JournalWriter] = None
        self._killed = False

    def journal_path(self) -> Optional[Path]:
        """Where the service's write-ahead job journal lives (or None)."""
        if self.cache_dir is None:
            return None
        return Path(self.cache_dir) / "service-journal.jsonl"

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        """Bind and start accepting; returns the bound ``(host, port)``.

        With a ``cache_dir`` configured, first replays the service
        journal and re-admits every job that was accepted but never
        reached a terminal state (:meth:`recover_jobs`), so work
        survives a service crash or kill.
        """
        self._loop = asyncio.get_running_loop()
        self._active_sem = asyncio.Semaphore(self.max_active)
        self._executor = ThreadPoolExecutor(
            max_workers=self.max_active,
            thread_name_prefix="repro-service-grid",
        )
        if self.jobs > 1:
            # Workers fork lazily, on the first grid that needs them.
            self._pools = [
                WorkerPool(self.jobs) for _ in range(self.max_active)
            ]
            for pool in self._pools:
                self._free_pools.put(pool)
        self._stopping = asyncio.Event()
        target = self.journal_path()
        if target is not None:
            # Append mode always: the journal is the service's history
            # across restarts, and recovery depends on the previous
            # incarnation's records staying in place.
            self._journal = JournalWriter(target, mode="a")
            self.recover_jobs()
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.host, port=self.port
        )
        sockname = self._server.sockets[0].getsockname()
        self.port = sockname[1]
        return sockname[0], sockname[1]

    def recover_jobs(self) -> int:
        """Re-admit journaled jobs that never finished; returns the count.

        Replays ``job-accepted`` / ``job-done`` records (last state
        wins per job id): a job accepted without a matching done record
        was in flight when the previous incarnation died, so it is
        re-created in the ``recovered`` state -- bypassing admission
        caps, which it already passed once -- and handed straight back
        to the executor. Shards it completed before the crash resolve
        from the result cache, so recovery never hands the pool
        finished work. Undecodable requests are skipped (counted as
        ``service.recover_skipped``), and a corrupt journal interior
        surfaces as :class:`~repro.errors.JournalError`.
        """
        target = self.journal_path()
        if target is None:
            return 0
        replay = read_journal(target)
        pending: Dict[str, Dict[str, Any]] = {}
        for record in replay.records:
            job_id = str(record.get("job_id", ""))
            if record.get("kind") == "job-accepted":
                pending[job_id] = record
            elif record.get("kind") == "job-done":
                pending.pop(job_id, None)
        recovered = 0
        for job_id, record in pending.items():
            try:
                submit = SubmitRequest.from_dict(record.get("request"))
            except ReproError:
                self.registry.counter("service.recover_skipped").inc()
                continue
            job = Job(job_id, submit)
            job.state = "recovered"
            self.job_table[job_id] = job
            job.publish({
                "type": "status",
                "state": "recovered",
                "note": "re-admitted from the service journal",
            })
            assert self._loop is not None
            job.task = self._loop.create_task(self._run_job(job))
            self.registry.counter("service.jobs_recovered").inc()
            recovered += 1
        return recovered

    async def serve_until_stopped(self) -> None:
        """Serve until :meth:`request_stop`; drain jobs before returning.

        After :meth:`request_kill` the drain is skipped -- the hard-stop
        path used to simulate a service crash in tests.
        """
        assert self._stopping is not None
        await self._stopping.wait()
        if not self._killed:
            await self.drain()
        assert self._server is not None
        self._server.close()
        await self._server.wait_closed()
        assert self._executor is not None
        self._executor.shutdown(wait=not self._killed, cancel_futures=self._killed)
        for pool in self._pools:
            if self._killed:
                pool.terminate()
            else:
                pool.close()
        if self._journal is not None:
            self._journal.close()

    def request_stop(self) -> None:
        """Stop accepting new jobs and begin graceful shutdown."""
        self.accepting = False
        if self._stopping is not None:
            self._stopping.set()

    def request_kill(self) -> None:
        """Hard-stop: abandon in-flight jobs without draining.

        Worker pools are terminated, shards in flight included.

        The journal keeps their ``job-accepted`` records un-terminated,
        which is exactly what :meth:`recover_jobs` re-admits on the next
        start -- the in-process stand-in for SIGKILLing ``repro serve``.
        """
        self._killed = True
        self.request_stop()

    async def drain(self) -> None:
        """Wait for every in-flight job task to reach a terminal state."""
        tasks = [
            job.task for job in self.job_table.values()
            if job.task is not None and not job.task.done()
        ]
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)

    # -- connection handling -----------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                request = await wire.read_http_request(reader)
            except ServiceError as exc:
                writer.write(self._error_response(exc))
                await writer.drain()
                return
            if request is None:
                return
            if (
                request.wants_websocket()
                and request.method == "GET"
                and request.path.startswith("/v1/jobs/")
                and request.path.endswith("/events")
            ):
                await self._serve_websocket(request, reader, writer)
                return
            writer.write(self._route(request))
            await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    def _json_response(self, status: int, payload: Dict[str, Any]) -> bytes:
        return wire.http_response(
            status, json.dumps(payload, sort_keys=True) + "\n"
        )

    def _error_response(self, exc: ServiceError) -> bytes:
        self.registry.counter("service.errors").inc()
        return self._json_response(
            exc.status or 500, error_envelope(exc.code, str(exc))
        )

    def _route(self, request: wire.HttpRequest) -> bytes:
        try:
            return self._dispatch(request)
        except ServiceError as exc:
            return self._error_response(exc)

    def _dispatch(self, request: wire.HttpRequest) -> bytes:
        method, path = request.method, request.path.rstrip("/") or "/"
        if method == "GET" and path == "/v1/meta":
            return self._json_response(200, self._meta())
        if method == "GET" and path == "/v1/healthz":
            return self._json_response(200, {
                "schema_version": SCHEMA_VERSION,
                "status": "ok",
                "accepting": self.accepting,
            })
        if method == "GET" and path == "/v1/metrics":
            return self._json_response(200, {
                "schema_version": SCHEMA_VERSION,
                "metrics": self.registry.snapshot(),
            })
        if method == "GET" and path == "/v1/jobs":
            return self._json_response(200, {
                "schema_version": SCHEMA_VERSION,
                "jobs": [
                    self.job_table[job_id].envelope()
                    for job_id in sorted(self.job_table)
                ],
            })
        if method == "GET" and path.startswith("/v1/jobs/"):
            tail = path[len("/v1/jobs/"):]
            if tail.endswith("/events"):
                job = self._job_or_404(tail[: -len("/events")])
                return self._json_response(200, job_envelope(
                    job.job_id, job.state,
                    coalesced=job.coalesced,
                    events=job.events,
                ))
            job = self._job_or_404(tail)
            return self._json_response(200, job.envelope(with_result=True))
        if method == "POST" and path == "/v1/jobs":
            return self._submit(request)
        if method == "POST" and path == "/v1/shutdown":
            self.registry.counter("service.shutdowns").inc()
            response = self._json_response(200, {
                "schema_version": SCHEMA_VERSION,
                "status": "draining",
            })
            self.request_stop()
            return response
        raise ServiceError(
            f"no route for {method} {path}", code="not-found", status=404
        )

    def _meta(self) -> Dict[str, Any]:
        import repro
        from repro.runner.api import runnable_experiments

        return {
            "schema_version": SCHEMA_VERSION,
            "service": "repro.service",
            "version": repro.__version__,
            "experiments": runnable_experiments(),
            "limits": {
                "max_pending": self.max_pending,
                "max_active": self.max_active,
                "per_client": self.per_client,
                "jobs": self.jobs,
            },
        }

    def _job_or_404(self, job_id: str) -> Job:
        job = self.job_table.get(job_id)
        if job is None:
            raise ServiceError(
                f"no such job: {job_id!r}", code="not-found", status=404
            )
        return job

    # -- submission --------------------------------------------------------

    def _submit(self, request: wire.HttpRequest) -> bytes:
        if not self.accepting:
            raise ServiceError(
                "service is shutting down", code="shutting-down", status=503
            )
        submit = decode_submit_request(request.body)
        try:
            job_id = submit.job.job_id()
        except ReproError as exc:
            raise ServiceError(str(exc), code="bad-request", status=400)
        self.registry.counter("service.submitted").inc()

        existing = self.job_table.get(job_id)
        if existing is not None and existing.active:
            existing.coalesced += 1
            self.registry.counter("service.coalesced").inc()
            existing.publish({
                "type": "status",
                "state": existing.state,
                "note": f"coalesced submission from {submit.client_id}",
            })
            return self._json_response(202, existing.envelope())

        queued = sum(1 for j in self.job_table.values() if j.state == "queued")
        if queued >= self.max_pending:
            self.registry.counter("service.shed").inc()
            raise ServiceError(
                f"admission queue full ({queued} queued >= "
                f"{self.max_pending})",
                code="shed", status=429,
            )
        mine = sum(
            1 for j in self.job_table.values()
            if j.active and j.request.client_id == submit.client_id
        )
        if mine >= self.per_client:
            self.registry.counter("service.shed").inc()
            raise ServiceError(
                f"client {submit.client_id!r} has {mine} jobs in flight "
                f">= per-client cap {self.per_client}",
                code="client-cap", status=429,
            )

        job = Job(job_id, submit)
        self.job_table[job_id] = job
        if self._journal is not None:
            # Write-ahead: the acceptance is durable before the 202 is
            # even built, so a crash at any later instant leaves a
            # journal record recovery can re-admit.
            self._journal.append(
                "job-accepted", job_id=job_id, request=submit.to_dict()
            )
        job.publish({"type": "status", "state": "queued"})
        assert self._loop is not None
        job.task = self._loop.create_task(self._run_job(job))
        return self._json_response(202, job.envelope())

    async def _run_job(self, job: Job) -> None:
        assert self._active_sem is not None and self._loop is not None
        loop = self._loop

        def heartbeat(message: str) -> None:
            # Called on the grid-executor thread; marshal to the loop.
            # A killed loop must not take the grid down with it -- the
            # run's durable state lives in the cache and journals.
            try:
                loop.call_soon_threadsafe(
                    job.publish, {"type": "heartbeat", "message": message}
                )
            except RuntimeError:  # loop closed mid-run (hard stop)
                pass

        async with self._active_sem:
            job.state = "running"
            run_started = time.perf_counter() - job.started
            job.publish({"type": "status", "state": "running"})
            try:
                result = await loop.run_in_executor(
                    self._executor,
                    functools.partial(self._execute, job.request, heartbeat),
                )
            except Exception as exc:  # any escape marks the job failed
                if self._killed:
                    # Its pool was terminated under it: abandoned, not
                    # failed, so the journal keeps it for recovery.
                    return
                job.state = "failed"
                job.error = str(exc) or exc.__class__.__name__
                self.registry.counter("service.failed").inc()
            else:
                job.result = result
                job.state = "done" if result.ok else "failed"
                self.registry.counter(
                    "service.completed" if result.ok else "service.failed"
                ).inc()
            if self._journal is not None:
                self._journal.append(
                    "job-done", job_id=job.job_id, state=job.state
                )
            run_ended = time.perf_counter() - job.started
            job.publish({
                "type": "span",
                "name": "execute",
                "start_s": round(run_started, 6),
                "end_s": round(run_ended, 6),
            })
            job.publish({
                "type": "status",
                "state": job.state,
                "error": job.error,
            })
            job.finish_streams()
            job.done_event.set()

    def _execute(self, request: SubmitRequest, heartbeat: Any) -> JobResult:
        """Run one grid on a free worker pool (grid-executor thread)."""
        from repro.runner.api import execute_job

        pool = self._free_pools.get() if self._pools else None
        try:
            return execute_job(
                request,
                jobs=self.jobs,
                cache_dir=self.cache_dir,
                registry=self.registry,
                progress=heartbeat,
                pool=pool,
            )
        finally:
            if pool is not None:
                self._free_pools.put(pool)

    # -- websocket event streaming -----------------------------------------

    async def _serve_websocket(
        self,
        request: wire.HttpRequest,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        tail = request.path.rstrip("/")[len("/v1/jobs/"):]
        job_id = tail[: -len("/events")]
        job = self.job_table.get(job_id)
        key = request.headers.get("sec-websocket-key")
        if job is None or not key:
            code = "not-found" if key else "bad-request"
            status = 404 if key else 400
            writer.write(self._json_response(
                status, error_envelope(code, f"cannot stream {job_id!r}")
            ))
            await writer.drain()
            return
        writer.write(wire.websocket_handshake_response(key))
        await writer.drain()
        self.registry.counter("service.ws_subscribers").inc()

        queue: asyncio.Queue = asyncio.Queue()
        for event in job.events:  # backlog first, then live
            queue.put_nowait(event)
        if not job.active:
            queue.put_nowait(None)
        else:
            job.subscribers.append(queue)
        try:
            sender = asyncio.ensure_future(self._ws_send(queue, writer))
            receiver = asyncio.ensure_future(self._ws_receive(reader, writer))
            done, pending = await asyncio.wait(
                {sender, receiver}, return_when=asyncio.FIRST_COMPLETED
            )
            for task in pending:
                task.cancel()
        finally:
            if queue in job.subscribers:
                job.subscribers.remove(queue)

    async def _ws_send(
        self, queue: asyncio.Queue, writer: asyncio.StreamWriter
    ) -> None:
        while True:
            event = await queue.get()
            if event is None:
                writer.write(wire.encode_frame(b"", opcode=wire.OP_CLOSE))
                await writer.drain()
                return
            writer.write(wire.encode_frame(
                json.dumps(event, sort_keys=True)
            ))
            await writer.drain()

    async def _ws_receive(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        while True:
            frame = await wire.read_frame(reader)
            if frame is None or frame[0] == wire.OP_CLOSE:
                return
            if frame[0] == wire.OP_PING:
                writer.write(wire.encode_frame(
                    frame[1], opcode=wire.OP_PONG
                ))
                await writer.drain()


class ServiceHandle:
    """A running service on a background thread, for tests and the CLI.

    The handle owns the thread: :meth:`stop` requests a graceful drain,
    waits for the loop to finish, and joins the thread.
    """

    def __init__(self, service: ExperimentService, thread: threading.Thread,
                 host: str, port: int) -> None:
        self.service = service
        self.thread = thread
        self.host = host
        self.port = port

    @property
    def base_url(self) -> str:
        """``http://host:port`` for a :class:`repro.client.ServiceClient`."""
        return f"http://{self.host}:{self.port}"

    def stop(self, timeout_s: float = 30.0) -> None:
        """Drain in-flight jobs, stop the loop, join the thread."""
        loop = self.service._loop
        if loop is not None and loop.is_running():
            loop.call_soon_threadsafe(self.service.request_stop)
        self.thread.join(timeout=timeout_s)
        if self.thread.is_alive():
            raise ServiceError(
                f"service thread did not stop within {timeout_s}s",
                code="connection",
            )

    def kill(self, timeout_s: float = 30.0) -> None:
        """Hard-stop without draining, abandoning in-flight jobs.

        The in-process equivalent of SIGKILLing ``repro serve``: jobs
        the journal recorded as accepted but not done stay that way, so
        the next service started on the same ``cache_dir`` re-admits
        them. For tests of the recovery path.
        """
        loop = self.service._loop
        if loop is not None and loop.is_running():
            loop.call_soon_threadsafe(self.service.request_kill)
        self.thread.join(timeout=timeout_s)
        if self.thread.is_alive():
            raise ServiceError(
                f"service thread did not die within {timeout_s}s",
                code="connection",
            )


def serve_in_thread(**kwargs: Any) -> ServiceHandle:
    """Start an :class:`ExperimentService` on a daemon thread.

    Accepts the :class:`ExperimentService` constructor arguments;
    returns once the socket is bound, so the handle's ``base_url`` is
    immediately connectable.
    """
    service = ExperimentService(**kwargs)
    bound: Dict[str, Any] = {}
    ready = threading.Event()

    def main() -> None:
        async def body() -> None:
            try:
                bound["address"] = await service.start()
            except OSError as exc:
                bound["error"] = exc
                ready.set()
                return
            ready.set()
            await service.serve_until_stopped()

        asyncio.run(body())

    thread = threading.Thread(
        target=main, name="repro-service", daemon=True
    )
    thread.start()
    ready.wait(timeout=30.0)
    if "error" in bound:
        raise ServiceError(
            f"service failed to bind: {bound['error']}", code="connection"
        )
    if "address" not in bound:
        raise ServiceError("service failed to start", code="connection")
    host, port = bound["address"]
    return ServiceHandle(service, thread, host, port)
