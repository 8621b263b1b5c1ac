"""Conservative-time coordination of per-shard simulators.

A :class:`ShardedSimulation` drives ``n_shards`` independent
:class:`~repro.engine.sim.Simulator` instances -- one per shard of a
workload's cut -- through barrier-synchronous conservative time
windows:

1. the *window base* is the global minimum next-event time over every
   shard calendar and every in-flight boundary event (skip-ahead: idle
   stretches cost one round, not ``horizon / lookahead`` rounds);
2. the *window end* is ``base + lookahead`` and every shard advances
   through the half-open window ``[base, end)`` -- exclusive of the end,
   so an arrival at exactly ``end`` is processed only after the barrier
   that delivers same-window boundary events;
3. at the barrier, each shard's outbox is routed to its destination
   shard (an empty exchange is a null message: it still advances every
   clock), and the loop repeats until all shards quiesce.

The workload side plugs in through ``build_runtime(shard_id)``, which
returns a runtime exposing
``next_time() -> float | None``,
``schedule_incoming(events) -> None``,
``advance(window_end) -> list[BoundaryEvent]`` and
``finalize() -> (records, metrics)``. ``advance(math.inf)`` must run the
shard to quiescence (the single-shard / empty-cut case).

One window loop serves both drivers; they differ only in how a shard
is reached. *Inline* calls every runtime directly in this process
(determinism debugging, tests, Windows); *fork* gives each shard a
worker process that answers the same commands over a pipe, the
:mod:`repro.runner.pool` idiom -- fork start method, duplex pipes,
daemon workers, terminate-on-error. Both produce identical barriers,
outboxes and merged traces; only wall-clock differs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List

from repro.engine.sharded.sync import (
    BoundaryEvent,
    TraceRecord,
    merge_shard_traces,
    next_window,
)
from repro.errors import SimulationError

_EVENT_KEY = (lambda event: (event.when, event.seq))


@dataclass(frozen=True)
class ShardedRunResult:
    """The merged outcome of one sharded run.

    ``records`` is the canonical merged trace (sorted by ``(when,
    seq)``); ``shard_metrics[i]`` is shard ``i``'s finalize metrics;
    ``rounds`` counts conservative windows (barriers) and
    ``boundary_events`` counts cross-shard deliveries.
    """

    records: List[TraceRecord]
    shard_metrics: List[Dict[str, Any]]
    rounds: int
    boundary_events: int
    n_shards: int


class ShardedSimulation:
    """Drive per-shard runtimes to completion under conservative windows.

    ``build_runtime(shard_id)`` builds one shard's runtime (see the
    module docstring); it must be picklable, as a module-level
    ``functools.partial`` is, since forked workers receive it.
    ``lookahead_s`` is the smallest base latency over the links that
    cross shards (``inf`` for an empty cut).
    """

    def __init__(
        self,
        build_runtime: Callable[[int], Any],
        n_shards: int,
        lookahead_s: float,
        inline: bool = False,
    ) -> None:
        self.build_runtime = build_runtime
        self.n_shards = n_shards
        self.lookahead_s = lookahead_s
        self.inline = inline

    def run(self) -> ShardedRunResult:
        """Run every shard to quiescence; merge traces deterministically."""
        n = self.n_shards
        shard_type = _InlineShard if self.inline or n == 1 else _ForkedShard
        shards: List[Any] = []
        try:
            for shard_id in range(n):
                shards.append(shard_type(self.build_runtime, shard_id))
            next_times = [shard.receive("ready") for shard in shards]
            pending: List[List[BoundaryEvent]] = [[] for _ in range(n)]
            rounds = 0
            boundary = 0
            while True:
                times = list(next_times)
                for box in pending:
                    times.extend(event.when for event in box)
                window_end = next_window(times, self.lookahead_s)
                if window_end is None:
                    break
                rounds += 1
                for shard, inbox in zip(shards, pending):
                    inbox.sort(key=_EVENT_KEY)
                    shard.send(("advance", window_end, inbox))
                pending = [[] for _ in range(n)]
                for shard_id, shard in enumerate(shards):
                    outbox, next_times[shard_id] = shard.receive("advanced")
                    for event in outbox:
                        pending[event.dest_shard].append(event)
                    boundary += len(outbox)
            finals = []
            for shard in shards:
                shard.send(("finalize",))
                finals.append(shard.receive("final"))
        finally:
            for shard in shards:
                shard.close()
        return ShardedRunResult(
            records=merge_shard_traces([records for records, _ in finals]),
            shard_metrics=[metrics for _, metrics in finals],
            rounds=rounds,
            boundary_events=boundary,
            n_shards=n,
        )


def _serve(runtime: Any, message: tuple) -> tuple:
    """Apply one coordinator command to ``runtime``; return the reply.

    - ``("advance", window_end, incoming)`` -> ``("advanced", (outbox,
      next_time))``
    - ``("finalize",)`` -> ``("final", (records, metrics))``
    """
    if message[0] == "advance":
        _, window_end, incoming = message
        if incoming:
            runtime.schedule_incoming(incoming)
        return "advanced", (runtime.advance(window_end), runtime.next_time())
    if message[0] == "finalize":
        return "final", runtime.finalize()
    raise SimulationError(  # pragma: no cover - protocol bug
        f"unknown shard command {message[0]!r}"
    )


class _InlineShard:
    """A shard whose runtime lives in this process: direct calls."""

    def __init__(self, build_runtime: Callable[[int], Any],
                 shard_id: int) -> None:
        self.runtime = build_runtime(shard_id)
        self.reply = ("ready", self.runtime.next_time())

    def send(self, message: tuple) -> None:
        self.reply = _serve(self.runtime, message)

    def receive(self, expected: str) -> Any:
        return self.reply[1]

    def close(self) -> None:
        pass


class _ForkedShard:
    """A shard served by its own worker process over a duplex pipe."""

    def __init__(self, build_runtime: Callable[[int], Any],
                 shard_id: int) -> None:
        from repro.runner.pool import _mp_context

        context = _mp_context()
        self.shard_id = shard_id
        self.conn, child_conn = context.Pipe(duplex=True)
        self.process = context.Process(
            target=_shard_worker_main,
            args=(child_conn, build_runtime, shard_id),
            daemon=True,
        )
        self.process.start()
        child_conn.close()

    def send(self, message: tuple) -> None:
        self.conn.send(message)

    def receive(self, expected: str) -> Any:
        try:
            message = self.conn.recv()
        except EOFError as error:  # pragma: no cover - worker crash
            raise SimulationError(
                f"shard {self.shard_id} worker died before replying"
            ) from error
        if message[0] == "error":
            raise SimulationError(
                f"shard {self.shard_id} worker failed:\n{message[1]}"
            )
        if message[0] != expected:  # pragma: no cover - protocol bug
            raise SimulationError(
                f"shard {self.shard_id}: expected {expected!r} reply, got "
                f"{message[0]!r}"
            )
        return message[1]

    def close(self) -> None:
        self.conn.close()
        self.process.join(timeout=5.0)
        if self.process.is_alive():  # pragma: no cover - crash cleanup
            self.process.terminate()
            self.process.join()


def _shard_worker_main(conn, build_runtime: Callable[[int], Any],
                       shard_id: int) -> None:
    """Worker body: build the shard runtime, serve commands, exit.

    Sends ``("ready", next_time)``, then answers each command with
    :func:`_serve`'s reply until it has sent ``("final", ...)``. Any
    exception ships back as ``("error", traceback)``.
    """
    import traceback

    try:
        runtime = build_runtime(shard_id)
        conn.send(("ready", runtime.next_time()))
        while True:
            reply = _serve(runtime, conn.recv())
            conn.send(reply)
            if reply[0] == "final":
                return
    except EOFError:  # pragma: no cover - parent died
        return
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc()))
        except (BrokenPipeError, OSError):  # pragma: no cover
            pass
    finally:
        conn.close()
