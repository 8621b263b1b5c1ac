"""Observability substrate: span tracing and a metrics registry.

The experiments' numbers (tail latencies, queue depths, utilization) are
*measured outputs* of the DES engine, so the engine must be inspectable:

- :class:`SpanLog` records named spans -- (enter, exit) pairs in virtual
  time with parent/child nesting and tags -- into a bounded ring buffer,
  exportable as JSONL for offline analysis.
- :class:`Counter`, :class:`Gauge` and :class:`Histogram` (fixed
  log-scale buckets) live in a :class:`Registry` whose
  :meth:`Registry.snapshot` feeds experiment reports.
- :class:`Observability` bundles both and attaches to a
  :class:`~repro.engine.sim.Simulator`, enabling ``sim.span(...)``
  context managers, per-process accounting and auto-published
  resource gauges. Used as a context manager it is the *ambient*
  observability: inside ``with obs:`` every new simulator attaches to
  it, and model code without a simulator reads it through
  :meth:`Observability.current`.

Everything here is optional: a simulator without an attached
:class:`Observability` pays only a handful of ``is None`` checks per
event (guarded by the X10 overhead benchmark).
"""

from __future__ import annotations

import itertools
import json
from bisect import bisect_left
from collections import deque
from contextvars import ContextVar
from typing import Any, Dict, List, Optional, Tuple


class Span:
    """One named interval of virtual time, with tags and a parent link."""

    __slots__ = ("span_id", "parent_id", "name", "tags", "start", "end")

    def __init__(
        self,
        span_id: int,
        name: str,
        start: float,
        tags: Optional[Dict[str, Any]] = None,
        parent_id: Optional[int] = None,
    ) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.tags: Dict[str, Any] = dict(tags) if tags else {}
        self.start = float(start)
        self.end: Optional[float] = None

    @property
    def duration(self) -> float:
        """Span length in virtual time (0.0 while still open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable representation (the ``trace.jsonl`` row)."""
        record: Dict[str, Any] = {
            "span": self.name,
            "id": self.span_id,
            "start": self.start,
            "end": self.end,
        }
        if self.parent_id is not None:
            record["parent"] = self.parent_id
        if self.tags:
            record["tags"] = self.tags
        return record

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, start={self.start:g}, "
            f"end={'open' if self.end is None else format(self.end, 'g')})"
        )


class SpanLog:
    """A bounded ring buffer of completed :class:`Span` records.

    Spans are appended on *finish*; when the buffer is full the oldest
    span is dropped and :attr:`dropped` incremented, so long runs stay
    bounded in memory while the tail of the trace survives.
    """

    def __init__(self, capacity: int = 65_536) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.dropped = 0
        self._spans: deque = deque(maxlen=capacity)
        self._ids = itertools.count()

    def __len__(self) -> int:
        return len(self._spans)

    def start(
        self,
        name: str,
        time: float,
        tags: Optional[Dict[str, Any]] = None,
        parent_id: Optional[int] = None,
    ) -> Span:
        """Open a span at ``time``; it is buffered when finished."""
        return Span(next(self._ids), name, time, tags, parent_id)

    def finish(self, span: Span, time: float) -> Span:
        """Close ``span`` at ``time`` and append it to the buffer."""
        if span.end is not None:
            raise ValueError(f"span {span.name!r} already finished")
        if time < span.start:
            raise ValueError(
                f"span {span.name!r} cannot end before it starts: "
                f"{time} < {span.start}"
            )
        span.end = float(time)
        if len(self._spans) == self.capacity:
            self.dropped += 1
        self._spans.append(span)
        return span

    def record(
        self,
        name: str,
        start: float,
        end: float,
        tags: Optional[Dict[str, Any]] = None,
        parent_id: Optional[int] = None,
    ) -> Span:
        """Record an already-measured interval in one call."""
        return self.finish(self.start(name, start, tags, parent_id), end)

    def spans(self) -> List[Span]:
        """The buffered (completed) spans, oldest first."""
        return list(self._spans)

    def by_name(self) -> Dict[str, Tuple[int, float]]:
        """Aggregate spans: name -> (count, total duration)."""
        out: Dict[str, Tuple[int, float]] = {}
        for span in self._spans:
            count, total = out.get(span.name, (0, 0.0))
            out[span.name] = (count + 1, total + span.duration)
        return out

    def by_tag(self, key: str, default: str = "") -> Dict[str, Tuple[int, float]]:
        """Aggregate spans by a tag value: value -> (count, total duration)."""
        out: Dict[str, Tuple[int, float]] = {}
        for span in self._spans:
            value = str(span.tags.get(key, default))
            count, total = out.get(value, (0, 0.0))
            out[value] = (count + 1, total + span.duration)
        return out

    def hottest(self, n: int = 5) -> List[Tuple[str, int, float]]:
        """Top ``n`` span names by total duration: (name, count, total)."""
        ranked = sorted(
            ((name, count, total) for name, (count, total) in self.by_name().items()),
            key=lambda item: (-item[2], item[0]),
        )
        return ranked[:n]

    def export_jsonl(self, path: str, header: Optional[Dict[str, Any]] = None) -> int:
        """Write spans (optionally preceded by a header object) as JSONL.

        Returns the number of lines written.
        """
        lines = 0
        with open(path, "w", encoding="utf-8") as handle:
            if header is not None:
                handle.write(json.dumps(header, sort_keys=True) + "\n")
                lines += 1
            for span in self._spans:
                handle.write(json.dumps(span.to_dict(), sort_keys=True) + "\n")
                lines += 1
        return lines


class Counter:
    """A monotonically increasing sum."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r}: negative increment")
        self.value += amount


class Gauge:
    """A piecewise-constant signal sampled at (time, value) points.

    Keeps O(1) state -- last value, extrema and the running time
    integral -- so long simulations can publish queue lengths and
    utilization on every transition without unbounded memory.
    """

    __slots__ = (
        "name", "n_samples", "first_time", "last_time", "last_value",
        "vmin", "vmax", "_integral",
    )

    def __init__(self, name: str) -> None:
        self.name = name
        self.n_samples = 0
        self.first_time = 0.0
        self.last_time = 0.0
        self.last_value = 0.0
        self.vmin = float("inf")
        self.vmax = float("-inf")
        self._integral = 0.0

    def set(self, time: float, value: float) -> None:
        """Record the signal transitioning to ``value`` at ``time``."""
        if self.n_samples and time < self.last_time:
            raise ValueError(
                f"gauge {self.name!r}: samples must be time-ordered "
                f"({time} < {self.last_time})"
            )
        if self.n_samples:
            self._integral += self.last_value * (time - self.last_time)
        else:
            self.first_time = time
        self.last_time = time
        self.last_value = value
        self.vmin = min(self.vmin, value)
        self.vmax = max(self.vmax, value)
        self.n_samples += 1

    def time_weighted_mean(self, until: Optional[float] = None) -> float:
        """Mean of the signal over [first sample, ``until``].

        ``until`` defaults to the last sample time; with a single sample
        (or ``until`` equal to the first sample time) the last value is
        returned.
        """
        if not self.n_samples:
            raise ValueError(f"gauge {self.name!r} has no samples")
        if until is None:
            until = self.last_time
        if until < self.last_time:
            raise ValueError(
                f"gauge {self.name!r}: until={until} precedes last sample"
            )
        elapsed = until - self.first_time
        if elapsed <= 0:
            return self.last_value
        integral = self._integral + self.last_value * (until - self.last_time)
        return integral / elapsed


#: Fixed log-scale histogram bucket upper bounds: 10^(k/4) for
#: k in [-36, 24], i.e. 1e-9 .. 1e6 with 4 buckets per decade.
HISTOGRAM_BOUNDS: Tuple[float, ...] = tuple(
    10.0 ** (k / 4.0) for k in range(-36, 25)
)


class Histogram:
    """A fixed log-scale-bucket histogram with exact count/sum/extrema.

    Bucket ``i`` counts observations ``v`` with
    ``HISTOGRAM_BOUNDS[i-1] < v <= HISTOGRAM_BOUNDS[i]``; values at or
    below the lowest bound land in bucket 0, values above the highest in
    the overflow bucket.
    """

    __slots__ = ("name", "counts", "count", "total", "vmin", "vmax")

    def __init__(self, name: str) -> None:
        self.name = name
        self.counts = [0] * (len(HISTOGRAM_BOUNDS) + 1)
        self.count = 0
        self.total = 0.0
        self.vmin = float("inf")
        self.vmax = float("-inf")

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.counts[bisect_left(HISTOGRAM_BOUNDS, value)] += 1
        self.count += 1
        self.total += value
        self.vmin = min(self.vmin, value)
        self.vmax = max(self.vmax, value)

    def mean(self) -> float:
        """Exact arithmetic mean of the observations."""
        if not self.count:
            raise ValueError(f"histogram {self.name!r} has no samples")
        return self.total / self.count

    def percentile(self, q: float) -> float:
        """Bucket-resolution ``q``-th percentile (0..100).

        Returns the upper bound of the bucket containing the target
        rank, clamped to the exact observed [min, max].
        """
        if not self.count:
            raise ValueError(f"histogram {self.name!r} has no samples")
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        target = q / 100.0 * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self.counts):
            cumulative += bucket_count
            if cumulative >= target and bucket_count:
                if index >= len(HISTOGRAM_BOUNDS):
                    return self.vmax
                bound = HISTOGRAM_BOUNDS[index]
                return min(max(bound, self.vmin), self.vmax)
        return self.vmax

    def p50(self) -> float:
        """Median (bucket resolution)."""
        return self.percentile(50.0)

    def p99(self) -> float:
        """99th percentile (bucket resolution) -- the tail-latency metric."""
        return self.percentile(99.0)


class Registry:
    """Named metric instruments, created on first use.

    One registry per experiment run; :meth:`snapshot` renders every
    instrument into plain dicts for reports and JSON export.
    """

    def __init__(self) -> None:
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        """Get or create the counter called ``name``."""
        instrument = self.counters.get(name)
        if instrument is None:
            instrument = self.counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge called ``name``."""
        instrument = self.gauges.get(name)
        if instrument is None:
            instrument = self.gauges[name] = Gauge(name)
        return instrument

    def histogram(self, name: str) -> Histogram:
        """Get or create the histogram called ``name``."""
        instrument = self.histograms.get(name)
        if instrument is None:
            instrument = self.histograms[name] = Histogram(name)
        return instrument

    def snapshot(self, until: Optional[float] = None) -> Dict[str, Any]:
        """All instruments as nested plain dicts, names sorted.

        ``until`` extends gauge time-weighted means to the given time
        (typically the simulation end).
        """
        gauges: Dict[str, Any] = {}
        for name in sorted(self.gauges):
            gauge = self.gauges[name]
            if not gauge.n_samples:
                continue
            at = until if until is not None and until >= gauge.last_time else None
            gauges[name] = {
                "last": gauge.last_value,
                "min": gauge.vmin,
                "max": gauge.vmax,
                "mean": gauge.time_weighted_mean(at),
            }
        histograms: Dict[str, Any] = {}
        for name in sorted(self.histograms):
            histogram = self.histograms[name]
            if not histogram.count:
                continue
            histograms[name] = {
                "count": histogram.count,
                "sum": histogram.total,
                "mean": histogram.mean(),
                "min": histogram.vmin,
                "max": histogram.vmax,
                "p50": histogram.p50(),
                "p99": histogram.p99(),
            }
        return {
            "counters": {
                name: self.counters[name].value
                for name in sorted(self.counters)
            },
            "gauges": gauges,
            "histograms": histograms,
        }


class _SpanContext:
    """Context manager produced by :meth:`Observability.span`."""

    __slots__ = ("_obs", "_name", "_tags", "_span", "_key")

    def __init__(self, obs: "Observability", name: str, tags: Dict[str, Any]) -> None:
        self._obs = obs
        self._name = name
        self._tags = tags
        self._span: Optional[Span] = None
        self._key: Any = None

    def __enter__(self) -> Span:
        obs = self._obs
        if obs.sim is None:
            raise RuntimeError(
                "sim.span() requires the Observability to be attached "
                "to a Simulator"
            )
        self._key = obs._context_key()
        stack = obs._stacks.setdefault(self._key, [])
        parent_id = stack[-1].span_id if stack else None
        self._span = obs.spans.start(self._name, obs.now, self._tags, parent_id)
        stack.append(self._span)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        obs = self._obs
        span = self._span
        if span is None:  # pragma: no cover - __enter__ raised
            return False
        if exc_type is not None:
            span.tags["error"] = exc_type.__name__
        obs.spans.finish(span, obs.now)
        stack = obs._stacks.get(self._key)
        if stack:
            try:
                stack.remove(span)
            except ValueError:  # pragma: no cover - defensive
                pass
            if not stack:
                del obs._stacks[self._key]
        return False


#: The ambient observability of the current context (``with obs:``).
_CURRENT: ContextVar[Optional["Observability"]] = ContextVar(
    "repro_observability", default=None
)


class Observability:
    """Span log + metric registry on one simulated timeline.

    Usage::

        obs = Observability()
        sim = Simulator(observability=obs)   # or obs.attach(sim)
        with sim.span("stage", subsystem="workloads.search"):
            yield sim.timeout(1.0)
        obs.registry.counter("requests").inc()
        obs.snapshot()

    or ambiently: ``with Observability() as obs: run(...)`` attaches
    every simulator the run builds. Simulators attached one after
    another share one timeline: each later one starts where the
    previous one's clock stood (:attr:`offset`), so span bounds, gauge
    samples and :attr:`now` stay ordered, and ``events_processed``
    sums over all of them.
    """

    def __init__(self, span_capacity: int = 65_536) -> None:
        self.registry = Registry()
        self.spans = SpanLog(capacity=span_capacity)
        self.sim: Any = None
        #: process name -> {"spawns", "steps", "completions", "sim_time"}
        self.process_stats: Dict[str, Dict[str, float]] = {}
        #: subsystem tag of the innermost open span -> event-step count
        self.steps_by_subsystem: Dict[str, int] = {}
        #: (process name, virtual time, repr(exception)) per crash seen
        self.errors: List[Tuple[str, float, str]] = []
        #: timeline time at which the attached simulator's clock reads 0
        self.offset = 0.0
        self._events_before = 0
        self._stacks: Dict[Any, List[Span]] = {}

    def __enter__(self) -> "Observability":
        self._token = _CURRENT.set(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        _CURRENT.reset(self._token)
        return False

    @staticmethod
    def current() -> Optional["Observability"]:
        """The innermost ``with``-scoped Observability, or None."""
        return _CURRENT.get()

    @property
    def now(self) -> float:
        """The timeline clock: the attached simulator's time + offset."""
        if self.sim is None:
            return self.offset
        return self.offset + self.sim.now

    def attach(self, sim: Any) -> "Observability":
        """Bind to ``sim`` (sets ``sim.observability``); returns self.

        A simulator replacing an earlier one continues its timeline.
        """
        previous = self.sim
        if previous is not None and previous is not sim:
            self._events_before += previous.events_processed
            self.offset = self.now - sim.now
        self.sim = sim
        sim.observability = self
        return self

    def span(self, name: str, **tags: Any) -> _SpanContext:
        """A context manager recording a span in the attached sim's time."""
        return _SpanContext(self, name, tags)

    def open_spans(self) -> List[Span]:
        """Spans entered but not yet exited, outermost first."""
        out: List[Span] = []
        for stack in self._stacks.values():
            out.extend(stack)
        return out

    def snapshot(self) -> Dict[str, Any]:
        """Registry snapshot extended with span, process and error stats."""
        until = self.now if self.sim is not None else None
        out = self.registry.snapshot(until)
        out["spans"] = {
            "recorded": len(self.spans),
            "dropped": self.spans.dropped,
            "open": len(self.open_spans()),
            "hottest": [
                {"name": name, "count": count, "total": total}
                for name, count, total in self.spans.hottest()
            ],
        }
        out["processes"] = {
            name: dict(stats)
            for name, stats in sorted(self.process_stats.items())
        }
        out["steps_by_subsystem"] = dict(sorted(self.steps_by_subsystem.items()))
        out["errors"] = list(self.errors)
        if self.sim is not None:
            out["events_processed"] = (
                self._events_before + self.sim.events_processed
            )
            out["sim_time"] = until
        return out

    def export_jsonl(self, path: str, header: Optional[Dict[str, Any]] = None) -> int:
        """Export the span buffer as JSONL (see :meth:`SpanLog.export_jsonl`)."""
        return self.spans.export_jsonl(path, header=header)

    # -- engine integration (called by Simulator/ProcessHandle) -----------

    def _context_key(self) -> Any:
        process = getattr(self.sim, "_active_process", None)
        return id(process) if process is not None else None

    def _note_step(self, handle: Any) -> None:
        stats = self.process_stats.get(handle.name)
        if stats is None:
            stats = self.process_stats[handle.name] = {
                "spawns": 0, "steps": 0, "completions": 0, "sim_time": 0.0,
            }
        if handle.steps == 0:
            stats["spawns"] += 1
        handle.steps += 1
        stats["steps"] += 1
        stack = self._stacks.get(id(handle))
        if stack:
            subsystem = stack[-1].tags.get("subsystem")
            if subsystem:
                self.steps_by_subsystem[subsystem] = (
                    self.steps_by_subsystem.get(subsystem, 0) + 1
                )

    def _note_process_end(self, handle: Any) -> None:
        stats = self.process_stats.get(handle.name)
        if stats is None:  # finished without ever stepping via us
            stats = self.process_stats[handle.name] = {
                "spawns": 1, "steps": 0, "completions": 0, "sim_time": 0.0,
            }
        stats["completions"] += 1
        lifetime = handle.lifetime()
        if lifetime is not None:
            stats["sim_time"] += lifetime
        self._stacks.pop(id(handle), None)

    def _note_process_error(self, handle: Any, exc: BaseException) -> None:
        self.errors.append((handle.name, self.now, repr(exc)))
        self.registry.counter("engine.process_errors").inc()
