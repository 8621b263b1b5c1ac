"""Reusable worker processes for shard execution, with timeouts and retries.

A :class:`WorkerPool` runs a list of :class:`ShardSpec` over up to
``size`` worker processes. Workers are forked lazily, on the first
shard that needs one, and then reused: each loops receiving a spec over
its pipe, running :func:`execute_shard` and sending the
:class:`RunResult` back, so a shard after the first pays neither a fork
nor a cold interpreter (lazy imports, first-call warm-up). Each shard
names its entrypoint as a dotted ``"module:function"`` path -- the
*worker* resolves and imports it, so specs stay trivially picklable and
no callables cross the process boundary. A shard that raises is
captured as an ``error`` result with its traceback; a shard that
exceeds the per-run timeout has its worker terminated and is recorded
as ``timeout``. The retry rule goes by type: a shard that raised one of
the library's own errors (:class:`~repro.errors.ReproError`, say a
:class:`~repro.errors.ConfigError` or a
:class:`~repro.errors.ModelError`) fails the same way on every rerun
of its config and seed, so that first ``error`` result is final; any
other exception, and every timeout or crash, is retried up to
``retries`` times before the failure is accepted into the sweep.

Hard worker death is a third, distinct failure class: the worker
vanished (SIGKILL, OOM-kill, a segfault in native code) without
reporting a result, detected as EOF on its pipe. The pool contains it
-- the dead worker is replaced for the next queued attempt, sibling
shards keep running -- and retries the shard under the same
``retries`` budget. A shard that kills its worker **twice** is
quarantined as ``crashed`` immediately, whatever budget remains: two
hard deaths mean the shard itself is the bullet, and feeding it more
workers would poison the whole grid. Timeouts are never confused with
crashes; a timeout is the *parent* terminating the worker, recorded
before the pipe is read. A worker is replaced only on those two events;
one that reports a result (``ok`` or ``error``) stays warm.

Results are returned in grid order (by :attr:`ShardSpec.index`), never
completion order, so a multi-worker sweep merges identically to a
serial one. :func:`run_shards` builds a pool for the duration of one
call (``jobs=1`` executes inline in the calling process instead -- the
degenerate pool that anchors the determinism guarantee); a long-lived
caller such as the experiment service keeps a pool open across calls.
"""

from __future__ import annotations

import importlib
import multiprocessing
import threading
import time
import traceback
from dataclasses import dataclass, field
from multiprocessing import util as mp_util
from multiprocessing.connection import wait as connection_wait
from typing import Any, Callable, Dict, List, Optional

from repro.errors import ConfigError, RegistryError, ReproError
from repro.runner.results import RunResult

#: Seconds between liveness polls of in-flight workers.
_POLL_INTERVAL_S = 0.05

#: Hard worker deaths a single shard may cause before it is quarantined
#: as ``crashed`` regardless of remaining retry budget.
_CRASH_QUARANTINE_AT = 2

#: Seconds a worker told to stop may take to exit before it is terminated.
_STOP_GRACE_S = 5.0

#: Guards every pool's worker list and state, and :data:`_PIPE_ENDS`.
#: Held across each fork, so a fork from any thread sees a complete set.
_LOCK = threading.Lock()

#: Every worker-pipe end this process holds. A newly forked worker
#: closes all of them but its own, so no worker keeps a sibling's pipe
#: (or its own parent end) open: EOF then means what it says -- the
#: worker died, or the parent did.
_PIPE_ENDS: set = set()


@dataclass(frozen=True)
class ShardSpec:
    """One schedulable unit: (experiment, seed, config) plus grid index."""

    index: int
    experiment_id: str
    entrypoint: str
    seed: int
    config: Dict[str, Any] = field(default_factory=dict)


def resolve_entrypoint(path: str) -> Callable[..., RunResult]:
    """Import a ``"module:function"`` path to its callable."""
    module_name, _, function_name = path.partition(":")
    if not module_name or not function_name:
        raise RegistryError(
            f"entrypoint must be 'module:function', got {path!r}"
        )
    module = importlib.import_module(module_name)
    fn = getattr(module, function_name, None)
    if fn is None:
        raise RegistryError(
            f"entrypoint {path!r}: {module_name} has no {function_name}"
        )
    return fn


def execute_shard(spec: ShardSpec) -> RunResult:
    """Run one shard to a :class:`RunResult`, capturing any traceback.

    A failure is ``retryable`` unless it is a
    :class:`~repro.errors.ReproError`.
    """
    try:
        fn = resolve_entrypoint(spec.entrypoint)
        result = fn(dict(spec.config), spec.seed)
        if not isinstance(result, RunResult):
            raise TypeError(
                f"entrypoint {spec.entrypoint!r} returned "
                f"{type(result).__name__}, expected RunResult"
            )
        if result.experiment_id != spec.experiment_id:
            raise RegistryError(
                f"entrypoint {spec.entrypoint!r} returned a result for "
                f"{result.experiment_id!r}, expected {spec.experiment_id!r}"
            )
        return result
    except Exception as exc:
        return RunResult(
            experiment_id=spec.experiment_id,
            seed=spec.seed,
            config=dict(spec.config),
            status="error",
            error=traceback.format_exc(),
            retryable=not isinstance(exc, ReproError),
        )


def _worker_main(conn) -> None:
    """Worker body: execute shards received on ``conn`` until told to stop.

    ``None`` or EOF (the parent closed its end, or died) ends the loop.
    """
    global _LOCK
    _LOCK = threading.Lock()  # the fork copied it held
    for end in _PIPE_ENDS:
        end.close()
    _PIPE_ENDS.clear()
    _PIPE_ENDS.add(conn)  # nested pools' workers must not inherit it
    while True:
        try:
            spec = conn.recv()
        except EOFError:
            return
        if spec is None:
            return
        conn.send(execute_shard(spec))


def _mp_context():
    """Prefer fork (cheap, inherits imports); fall back to the default."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


@dataclass(eq=False)
class _Worker:
    """One worker process and the parent's end of its pipe."""

    process: Any
    conn: Any


@dataclass
class _InFlight:
    """Bookkeeping for one shard attempt running on a worker."""

    spec: ShardSpec
    attempt: int
    worker: _Worker
    started: float


def _failure(spec: ShardSpec, status: str, detail: str) -> RunResult:
    return RunResult(
        experiment_id=spec.experiment_id,
        seed=spec.seed,
        config=dict(spec.config),
        status=status,
        error=detail,
    )


def _check_policy(retries: int, timeout_s: Optional[float]) -> None:
    if retries < 0:
        raise ConfigError(f"retries must be >= 0, got {retries}")
    if timeout_s is not None and timeout_s <= 0:
        raise ConfigError(f"timeout_s must be positive, got {timeout_s}")


def run_shards(
    shards: List[ShardSpec],
    jobs: int = 1,
    timeout_s: Optional[float] = None,
    retries: int = 1,
    on_complete: Optional[Callable[[ShardSpec, RunResult], None]] = None,
    on_start: Optional[Callable[[ShardSpec, int], None]] = None,
    on_crash: Optional[Callable[[ShardSpec, int], None]] = None,
) -> List[RunResult]:
    """Execute ``shards`` and return their results in grid order.

    ``jobs > 1`` runs them on a :class:`WorkerPool` of ``jobs`` workers
    that lives for this call only: its workers fork from the caller's
    state at call time and are gone when the call returns, raises or is
    interrupted. See :meth:`WorkerPool.run` for the other arguments.
    ``jobs=1`` executes inline in the calling process: no timeout (a
    running shard cannot be preempted) and no ``on_crash`` (a hard
    crash there takes the caller with it and cannot be contained).
    """
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    _check_policy(retries, timeout_s)
    if jobs == 1:
        return _run_inline(shards, retries, on_complete, on_start)
    with WorkerPool(jobs) as pool:
        return pool.run(
            shards, timeout_s, retries, on_complete, on_start, on_crash
        )


def _run_inline(shards, retries, on_complete, on_start) -> List[RunResult]:
    results: List[RunResult] = []
    for spec in sorted(shards, key=lambda s: s.index):
        result = None
        for attempt in range(1, retries + 2):
            if on_start is not None:
                on_start(spec, attempt)
            started = time.perf_counter()
            result = execute_shard(spec)
            result.attempts = attempt
            result.wall_s = time.perf_counter() - started
            if result.ok or not result.retryable:
                break
        if on_complete is not None:
            on_complete(spec, result)
        results.append(result)
    return results


def _terminate_all(workers: List[_Worker]) -> None:
    for worker in workers:
        worker.process.terminate()
    for worker in workers:
        worker.process.join()


class WorkerPool:
    """Up to ``size`` reusable worker processes.

    Workers fork on demand from the owner's state at that moment and
    stay up across :meth:`run` calls; one is replaced only when its
    shard times out (the pool terminates it) or it dies (EOF). The
    owner runs one :meth:`run` at a time and ends the pool with
    :meth:`close` (idle workers exit) or :meth:`terminate`; used as a
    context manager it closes on exit. Workers are not daemonic: a
    shard may start its own workers (X14's sharded engine, X16's
    runner), which daemonic processes cannot.
    """

    def __init__(self, size: int) -> None:
        if size < 1:
            raise ConfigError(f"pool size must be >= 1, got {size}")
        self.size = size
        self._workers: List[_Worker] = []
        self._idle: List[_Worker] = []
        self._closed = False
        self._running = False
        # A pool never closed must not outlive its owner: at interpreter
        # exit (before multiprocessing joins its non-daemonic children,
        # which would wait on idle workers forever) or when the pool is
        # collected, its workers are terminated.
        mp_util.Finalize(
            self, _terminate_all, args=(self._workers,), exitpriority=10
        )

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def worker_pids(self) -> List[int]:
        """Process ids of the live workers."""
        with _LOCK:
            return [worker.process.pid for worker in self._workers]

    def _spawn(self) -> _Worker:
        context = _mp_context()
        with _LOCK:
            if self._closed:
                raise RuntimeError("worker pool is closed")
            parent_conn, child_conn = context.Pipe()
            _PIPE_ENDS.add(parent_conn)
            process = context.Process(
                target=_worker_main, args=(child_conn,), daemon=False
            )
            try:
                process.start()
            except BaseException:
                _PIPE_ENDS.discard(parent_conn)
                parent_conn.close()
                raise
            finally:
                child_conn.close()
            worker = _Worker(process, parent_conn)
            self._workers.append(worker)
        return worker

    def _acquire(self) -> _Worker:
        """An idle live worker, or a freshly forked one."""
        while self._idle:
            worker = self._idle.pop()
            if not worker.conn.poll():  # EOF pending: died while idle
                return worker
            self._retire(worker)
        return self._spawn()

    def _retire(self, worker: _Worker, stop: bool = False) -> None:
        """Reap ``worker`` (terminating it first when ``stop``)."""
        with _LOCK:
            self._workers.remove(worker)
            _PIPE_ENDS.discard(worker.conn)
        if worker in self._idle:
            self._idle.remove(worker)
        if stop:
            worker.process.terminate()
        worker.process.join()
        worker.conn.close()

    def run(
        self,
        shards: List[ShardSpec],
        timeout_s: Optional[float] = None,
        retries: int = 1,
        on_complete: Optional[Callable[[ShardSpec, RunResult], None]] = None,
        on_start: Optional[Callable[[ShardSpec, int], None]] = None,
        on_crash: Optional[Callable[[ShardSpec, int], None]] = None,
    ) -> List[RunResult]:
        """Execute ``shards`` on the pool; return results in grid order.

        ``timeout_s`` bounds each attempt's wall time. ``retries`` is
        the number of *re*-attempts after a failure, so every shard
        runs at most ``retries + 1`` times. ``on_start(spec, attempt)``
        fires as each attempt is handed to a worker and ``on_complete``
        as each shard's result is accepted; ``on_crash(spec, attempt)``
        fires each time a worker dies without reporting a result. All
        hooks run in the calling process. If this call raises or is
        interrupted, the workers still running a shard are terminated;
        idle ones stay for the next call.
        """
        _check_policy(retries, timeout_s)
        with _LOCK:
            if self._closed:
                raise RuntimeError("worker pool is closed")
            self._running = True
        queue: List[tuple] = [
            (spec, 1) for spec in sorted(shards, key=lambda s: s.index)
        ]
        in_flight: List[_InFlight] = []
        done: Dict[int, RunResult] = {}
        crash_counts: Dict[int, int] = {}

        def settle(flight: _InFlight, result: RunResult) -> None:
            """Record an attempt's outcome: requeue, or accept the result.

            A shard at the crash-quarantine threshold is accepted as its
            final ``crashed`` result even with retry budget left -- a
            shard that keeps killing workers must not keep consuming
            them.

            ``attempts`` on a non-crashed result excludes attempts whose
            worker was vaporized before reporting: an external SIGKILL
            is infrastructure noise, not a verdict from the shard, and
            counting it would make a chaos-interrupted grid serialize
            differently from the clean run (``attempts`` is a canonical
            results.json field). Crash events are still fully visible
            via ``on_crash`` and the journal.
            """
            crashes = crash_counts.get(flight.spec.index, 0)
            if result.status == "crashed":
                result.attempts = flight.attempt
            else:
                result.attempts = max(1, flight.attempt - crashes)
            result.wall_s = time.perf_counter() - flight.started
            quarantined = (
                result.status == "crashed"
                and crashes >= _CRASH_QUARANTINE_AT
            )
            if (not result.ok and not quarantined and result.retryable
                    and flight.attempt <= retries):
                queue.append((flight.spec, flight.attempt + 1))
                return
            done[flight.spec.index] = result
            if on_complete is not None:
                on_complete(flight.spec, result)

        try:
            while queue or in_flight:
                while queue and len(in_flight) < self.size:
                    spec, attempt = queue.pop(0)
                    if on_start is not None:
                        on_start(spec, attempt)
                    worker = self._acquire()
                    try:
                        worker.conn.send(spec)
                    except OSError:
                        pass  # it just died: the read below sees EOF
                    in_flight.append(
                        _InFlight(spec, attempt, worker, time.perf_counter())
                    )

                ready = connection_wait(
                    [flight.worker.conn for flight in in_flight],
                    timeout=_POLL_INTERVAL_S,
                )
                if self._closed:  # terminate() from another thread
                    raise RuntimeError("worker pool was terminated mid-run")
                now = time.perf_counter()
                finished: List[_InFlight] = []
                for flight in in_flight:
                    worker = flight.worker
                    if worker.conn in ready:
                        try:
                            result = worker.conn.recv()
                        except EOFError:
                            # Hard worker death: the worker vanished
                            # (SIGKILL, OOM, segfault) without sending a
                            # result. This is a crash, never a timeout --
                            # timeouts are parent-initiated terminations
                            # handled below.
                            self._retire(worker)
                            index = flight.spec.index
                            crash_counts[index] = (
                                crash_counts.get(index, 0) + 1
                            )
                            if on_crash is not None:
                                on_crash(flight.spec, flight.attempt)
                            exitcode = worker.process.exitcode
                            cause = (
                                f"killed by signal {-exitcode}"
                                if exitcode is not None and exitcode < 0
                                else f"exit code {exitcode}"
                            )
                            result = _failure(
                                flight.spec, "crashed",
                                "worker process died before reporting a "
                                f"result ({cause}, attempt {flight.attempt}, "
                                f"crash {crash_counts[index]} for this shard)",
                            )
                        else:
                            self._idle.append(worker)
                        finished.append(flight)
                        settle(flight, result)
                    elif (timeout_s is not None
                          and now - flight.started > timeout_s):
                        self._retire(worker, stop=True)
                        finished.append(flight)
                        settle(flight, _failure(
                            flight.spec, "timeout",
                            f"shard exceeded the {timeout_s:g}s run timeout "
                            f"(attempt {flight.attempt})",
                        ))
                for flight in finished:
                    in_flight.remove(flight)
        finally:
            # Raised or interrupted: a worker still mid-shard would run
            # on unobserved, so it goes.
            for flight in in_flight:
                if flight.worker in self._workers:
                    self._retire(flight.worker, stop=True)
            with _LOCK:
                self._running = False
                closed = self._closed
            if closed:  # terminate() from another thread mid-run
                self._reap()

        return [done[index] for index in sorted(done)]

    def _reap(self) -> None:
        for worker in list(self._workers):
            self._retire(worker, stop=True)

    def close(self) -> None:
        """Stop accepting runs; tell idle workers to exit and reap them.

        Call between runs, from the owning thread. A worker that does
        not exit within the grace period is terminated.
        """
        with _LOCK:
            self._closed = True
            workers = list(self._workers)
        for worker in workers:
            try:
                worker.conn.send(None)
            except OSError:
                pass  # already gone
        for worker in workers:
            worker.process.join(_STOP_GRACE_S)
        self._reap()

    def terminate(self) -> None:
        """Stop every worker now, abandoning any shard in flight.

        Safe from any thread. A :meth:`run` in progress raises on its
        next poll and terminates the workers itself; otherwise they are
        terminated here.
        """
        with _LOCK:
            self._closed = True
            running = self._running
        if not running:
            self._reap()
