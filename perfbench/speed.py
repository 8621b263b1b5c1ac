"""Machine speed, sampled while a timed phase runs.

On a shared host the same code runs up to about 1.7x slower while
another tenant loads the same physical core, and each core switches
between fast and slow spells lasting seconds to minutes, independently
of the other. A 30 s phase cannot average that out: identical runs of
one workload spread by 10-30%. So while a phase runs, an interval timer
interrupts it every ``PERIOD_S`` and times a fixed reference workload
(a small event loop written here, never the program's code), and the
phase's wall time is scaled to a machine on which the reference takes
``NOMINAL_REF_S`` of CPU time. A change to the program leaves the reference
untouched, so scaled times move as raw times would on a steady machine.
The reference's own time is taken out of the phase before scaling.
"""

from __future__ import annotations

import heapq
import signal
import time
from typing import Generator, List, Tuple

#: How often the reference runs (wall-clock timer).
PERIOD_S = 0.1
#: About the reference's mean time, interleaved with a workload, on the
#: 2-core Xeon (2.1 GHz) guest the benchmark was written on; scaled
#: times are seconds at that speed.
NOMINAL_REF_S = 3.5e-3
#: Entries in the table the reference touches, so it misses in cache
#: about as often as the simulator does.
_TABLE_SIZE = 1 << 19
_PROCESSES = 16
_EVENTS = 1200


class _Event:
    __slots__ = ("when", "seq", "process")

    def __init__(self, when: float, seq: int, process: int) -> None:
        self.when = when
        self.seq = seq
        self.process = process

    def __lt__(self, other: "_Event") -> bool:
        return (self.when, self.seq) < (other.when, other.seq)


def _process(state: dict, index: int) -> Generator[None, float, None]:
    while True:
        delay = yield
        state[index] = state.get(index, 0.0) + delay


def reference(table: List[int]) -> int:
    """A fixed event loop: heap calendar, generator processes, a table."""
    x = 12345
    state: dict = {}
    processes = []
    calendar: List[_Event] = []
    for index in range(_PROCESSES):
        process = _process(state, index)
        next(process)
        processes.append(process)
        calendar.append(_Event(index / _PROCESSES, index, index))
    heapq.heapify(calendar)
    size = len(table)
    for seq in range(_PROCESSES, _EVENTS):
        event = heapq.heappop(calendar)
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        table[x % size] += 1
        delay = (x & 1023) / 1024.0
        processes[event.process].send(delay)
        heapq.heappush(calendar, _Event(event.when + delay, seq,
                                        event.process))
    return len(state)


class SpeedProbe:
    """Times ``reference`` every ``PERIOD_S`` from a ``SIGALRM`` handler.

    The handler runs in the main thread between bytecodes, so it
    measures the core the measured code is running on at that moment.
    Speed is the reference's thread CPU time, which leaves out time the
    handler spent preempted by the server and pool processes while a
    client waits. Samples are ``(start, cpu_s, wall_s)``, ``start`` on
    the ``perf_counter`` clock.
    """

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float, float]] = []
        self._table = [0] * _TABLE_SIZE
        self._previous = None

    def _tick(self, _signum, _frame) -> None:
        start, cpu = time.perf_counter(), time.thread_time()
        reference(self._table)
        self.samples.append((start, time.thread_time() - cpu,
                             time.perf_counter() - start))

    def start(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def window(self, since: float, until: float) -> Tuple[float, float]:
        """Mean reference CPU time and total reference wall time.

        Covers samples started in ``[since, until)``. A window too
        short to hold a sample times the reference once.
        """
        inside = [(cpu, wall) for t, cpu, wall in self.samples
                  if since <= t < until]
        if not inside:
            cpu = time.thread_time()
            reference(self._table)
            return time.thread_time() - cpu, 0.0
        return (sum(cpu for cpu, _ in inside) / len(inside),
                sum(wall for _, wall in inside))

    def scaled(self, since: float, until: float) -> float:
        """The window's length less reference time, at nominal speed."""
        mean, spent = self.window(since, until)
        return scale(until - since - spent, mean)


def scale(seconds: float, mean_ref_s: float) -> float:
    """Host seconds measured at ``mean_ref_s`` -> nominal seconds."""
    return max(seconds, 0.0) * NOMINAL_REF_S / mean_ref_s
