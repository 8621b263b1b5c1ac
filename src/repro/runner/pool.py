"""Process-pool shard execution with timeouts and bounded retries.

The pool fans a list of :class:`ShardSpec` out over up to ``jobs``
worker processes. Each shard names its entrypoint as a dotted
``"module:function"`` path -- the *child* resolves and imports it, so
specs stay trivially picklable and no callables cross the process
boundary. A shard that raises is captured as an ``error`` result with
its traceback; a shard that exceeds the per-run timeout is terminated
and recorded as ``timeout``; both are retried up to ``retries`` times
before the failure is accepted into the sweep.

Hard worker death is a third, distinct failure class: the child
process vanished (SIGKILL, OOM-kill, a segfault in native code) without
reporting a result, detected as EOF on the result pipe. The pool
contains it -- the dead worker's slot is simply relaunched for the next
queued attempt, sibling shards keep running -- and retries the shard
under the same ``retries`` budget. A shard that kills its worker
**twice** is quarantined as ``crashed`` immediately, whatever budget
remains: two hard deaths mean the shard itself is the bullet, and
feeding it more workers would poison the whole grid. Timeouts are never
confused with crashes; a timeout is the *parent* terminating the child,
recorded before the pipe closes.

Results are returned in grid order (by :attr:`ShardSpec.index`), never
completion order, so a multi-worker sweep merges identically to a
serial one. ``jobs=1`` executes inline in the calling process -- the
degenerate pool that anchors the determinism guarantee.
"""

from __future__ import annotations

import importlib
import multiprocessing
import time
import traceback
from dataclasses import dataclass, field
from multiprocessing.connection import wait as connection_wait
from typing import Any, Callable, Dict, List, Optional

from repro.errors import RegistryError
from repro.runner.results import RunResult

#: Seconds between liveness polls of in-flight workers.
_POLL_INTERVAL_S = 0.05

#: Hard worker deaths a single shard may cause before it is quarantined
#: as ``crashed`` regardless of remaining retry budget.
_CRASH_QUARANTINE_AT = 2


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
    """Run one shard to a :class:`RunResult`, capturing any traceback."""
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
    except Exception:
        return RunResult(
            experiment_id=spec.experiment_id,
            seed=spec.seed,
            config=dict(spec.config),
            status="error",
            error=traceback.format_exc(),
        )


def _child_main(conn, spec: ShardSpec) -> None:
    """Worker body: execute the shard, ship the result back, exit."""
    try:
        result = execute_shard(spec)
        conn.send(result)
    finally:
        conn.close()


def _mp_context():
    """Prefer fork (cheap, inherits imports); fall back to the default."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


@dataclass
class _InFlight:
    """Bookkeeping for one running worker process."""

    spec: ShardSpec
    attempt: int
    process: Any
    conn: Any
    started: float


def _failure(spec: ShardSpec, status: str, detail: str) -> RunResult:
    return RunResult(
        experiment_id=spec.experiment_id,
        seed=spec.seed,
        config=dict(spec.config),
        status=status,
        error=detail,
    )


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

    ``timeout_s`` bounds each attempt's wall time (pooled mode only;
    inline ``jobs=1`` execution cannot preempt a running shard).
    ``retries`` is the number of *re*-attempts after a failure, so every
    shard runs at most ``retries + 1`` times. ``on_start`` /
    ``on_complete`` are progress hooks invoked in the parent.
    ``on_crash(spec, attempt)`` fires in the parent each time a worker
    process dies without reporting a result (pooled mode only: inline
    execution shares the caller's process, so a hard crash there takes
    the caller with it and cannot be contained).
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    if timeout_s is not None and timeout_s <= 0:
        raise ValueError(f"timeout_s must be positive, got {timeout_s}")

    if jobs == 1:
        return _run_inline(shards, retries, on_complete, on_start)
    return _run_pooled(
        shards, jobs, timeout_s, retries, on_complete, on_start, on_crash
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
            if result.ok:
                break
        if on_complete is not None:
            on_complete(spec, result)
        results.append(result)
    return results


def _run_pooled(
    shards, jobs, timeout_s, retries, on_complete, on_start, on_crash=None
) -> List[RunResult]:
    context = _mp_context()
    queue: List[tuple] = [
        (spec, 1) for spec in sorted(shards, key=lambda s: s.index)
    ]
    in_flight: List[_InFlight] = []
    done: Dict[int, RunResult] = {}
    crash_counts: Dict[int, int] = {}

    def launch(spec: ShardSpec, attempt: int) -> None:
        parent_conn, child_conn = context.Pipe(duplex=False)
        # Not daemonic: a shard may start its own workers (X14's sharded
        # engine, X16's runner), which daemonic processes cannot. The
        # ``finally`` below still terminates any worker left in flight.
        process = context.Process(
            target=_child_main, args=(child_conn, spec), daemon=False
        )
        if on_start is not None:
            on_start(spec, attempt)
        process.start()
        child_conn.close()
        in_flight.append(
            _InFlight(spec, attempt, process, parent_conn,
                      time.perf_counter())
        )

    def settle(flight: _InFlight, result: RunResult) -> None:
        """Record an attempt's outcome: requeue, or accept the result.

        A shard at the crash-quarantine threshold is accepted as its
        final ``crashed`` result even with retry budget left -- a shard
        that keeps killing workers must not keep consuming them.

        ``attempts`` on a non-crashed result excludes attempts whose
        worker was vaporized before reporting: an external SIGKILL is
        infrastructure noise, not a verdict from the shard, and counting
        it would make a chaos-interrupted grid serialize differently
        from the clean run (``attempts`` is a canonical results.json
        field). Crash events are still fully visible via ``on_crash``
        and the journal.
        """
        crashes = crash_counts.get(flight.spec.index, 0)
        if result.status == "crashed":
            result.attempts = flight.attempt
        else:
            result.attempts = max(1, flight.attempt - crashes)
        result.wall_s = time.perf_counter() - flight.started
        quarantined = (
            result.status == "crashed"
            and crash_counts.get(flight.spec.index, 0) >= _CRASH_QUARANTINE_AT
        )
        if not result.ok and not quarantined and flight.attempt <= retries:
            queue.append((flight.spec, flight.attempt + 1))
            return
        done[flight.spec.index] = result
        if on_complete is not None:
            on_complete(flight.spec, result)

    try:
        while queue or in_flight:
            while queue and len(in_flight) < jobs:
                spec, attempt = queue.pop(0)
                launch(spec, attempt)

            ready = connection_wait(
                [flight.conn for flight in in_flight],
                timeout=_POLL_INTERVAL_S,
            )
            now = time.perf_counter()
            finished: List[_InFlight] = []
            for flight in in_flight:
                if flight.conn in ready:
                    try:
                        result = flight.conn.recv()
                    except EOFError:
                        # Hard worker death: the child vanished (SIGKILL,
                        # OOM, segfault) without sending a result. This
                        # is a crash, never a timeout -- timeouts are
                        # parent-initiated terminations handled below.
                        flight.process.join()
                        index = flight.spec.index
                        crash_counts[index] = crash_counts.get(index, 0) + 1
                        if on_crash is not None:
                            on_crash(flight.spec, flight.attempt)
                        exitcode = flight.process.exitcode
                        cause = (
                            f"killed by signal {-exitcode}"
                            if exitcode is not None and exitcode < 0
                            else f"exit code {exitcode}"
                        )
                        result = _failure(
                            flight.spec, "crashed",
                            "worker process died before reporting a result "
                            f"({cause}, attempt {flight.attempt}, "
                            f"crash {crash_counts[index]} for this shard)",
                        )
                    finished.append(flight)
                    flight.process.join()
                    flight.conn.close()
                    settle(flight, result)
                elif (timeout_s is not None
                      and now - flight.started > timeout_s):
                    flight.process.terminate()
                    flight.process.join()
                    flight.conn.close()
                    finished.append(flight)
                    settle(flight, _failure(
                        flight.spec, "timeout",
                        f"shard exceeded the {timeout_s:g}s run timeout "
                        f"(attempt {flight.attempt})",
                    ))
            for flight in finished:
                in_flight.remove(flight)
    finally:
        for flight in in_flight:  # interrupted: leave no orphans
            flight.process.terminate()
            flight.process.join()
            flight.conn.close()

    return [done[index] for index in sorted(done)]
