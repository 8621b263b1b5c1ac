"""Boundary events, window arithmetic and deterministic trace merging.

The conservative protocol in :mod:`repro.engine.sharded.coordinator`
advances every shard through a sequence of *exclusive* time windows
``[base, end)`` where ``end = base + lookahead`` and ``base`` is the
global minimum next-event time. Cross-shard interactions travel as
:class:`BoundaryEvent` values exchanged at the barrier between windows;
an exchange round with no events is exactly a null message -- it still
advances every shard's clock to the window end.

Trace records are ``(when, seq, kind, node)`` tuples where ``seq`` is a
workload-assigned, globally unique integer (independent of which engine
or shard produced the record). :func:`merge_shard_traces` performs the
deterministic k-way merge by ``(when, seq, shard)`` and
:func:`canonical_trace_lines` fixes the byte-level serialization --
``repr`` floats round-trip exactly, so two traces are bit-for-bit equal
iff their canonical lines are.
"""

from __future__ import annotations

import hashlib
import heapq
import math
from itertools import islice
from typing import Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

#: One trace record: (when, seq, kind, node).
TraceRecord = Tuple[float, int, str, str]


class BoundaryEvent(NamedTuple):
    """A timestamped cross-shard interaction, exchanged at a barrier.

    ``seq`` carries the workload's deterministic tie-break key so the
    receiving shard schedules same-timestamp arrivals in the same order
    regardless of exchange batching. ``payload`` is workload-defined and
    must be picklable (it crosses a process pipe in fork mode).
    """

    when: float
    seq: int
    dest_shard: int
    payload: tuple


def next_window(
    next_times: Sequence[Optional[float]],
    lookahead_s: float,
) -> Optional[float]:
    """The exclusive end of the next conservative window, or ``None``.

    ``next_times`` holds each shard's earliest pending event time
    (``None`` for an idle shard, *after* barrier delivery so in-flight
    boundary events are already in some shard's calendar). Returns
    ``None`` when every shard is idle -- the simulation has quiesced.
    With infinite lookahead (no boundary cut) the window is unbounded
    and the caller should run shards to quiescence.
    """
    base = None
    for when in next_times:
        if when is not None and (base is None or when < base):
            base = when
    if base is None:
        return None
    if math.isinf(lookahead_s):
        return math.inf
    return base + lookahead_s


def exclusive_until(window_end: float) -> float:
    """The largest time strictly below ``window_end``.

    ``Simulator.run(until=t)`` is inclusive of events at exactly ``t``;
    conservative windows must be exclusive of their end (an arrival at
    ``window_end`` belongs to the next round, after barrier delivery).
    One float step down converts the inclusive kernel bound into the
    exclusive protocol bound without touching the kernel.
    """
    return math.nextafter(window_end, -math.inf)


def merge_shard_traces(
    shard_records: Sequence[Sequence[TraceRecord]],
) -> List[TraceRecord]:
    """Deterministic k-way merge of per-shard traces by (when, seq, shard).

    Each per-shard stream must already be sorted by ``(when, seq)``;
    ``heapq.merge`` is stable, so equal keys resolve in shard order.
    The shard tie-break is unreachable when ``seq`` values are globally
    unique (the workload contract), but pinning it keeps the merge total
    even for degenerate inputs.
    """
    return list(
        heapq.merge(*shard_records, key=lambda record: (record[0], record[1]))
    )


def _trace_lines(records: Iterable[TraceRecord]) -> Iterator[str]:
    return (
        f"{when!r}\t{seq}\t{kind}\t{node}\n"
        for when, seq, kind, node in records
    )


def canonical_trace_lines(records: Iterable[TraceRecord]) -> List[str]:
    """The canonical one-line-per-record serialization of a trace.

    ``repr`` on floats is shortest-round-trip exact, so equal lines
    imply bit-for-bit equal timestamps.
    """
    return list(_trace_lines(records))


#: Canonical lines hashed per ``sha256.update`` in :func:`trace_digest`.
_DIGEST_CHUNK_LINES = 4096


def trace_digest(records: Iterable[TraceRecord]) -> str:
    """SHA-256 over the canonical serialization of ``records``.

    The lines are hashed a fixed-size chunk at a time, so the digest
    never holds the whole serialized trace in memory; it equals the
    hash of the joined text.
    """
    digest = hashlib.sha256()
    lines = _trace_lines(records)
    while chunk := "".join(islice(lines, _DIGEST_CHUNK_LINES)):
        digest.update(chunk.encode("utf-8"))
    return digest.hexdigest()
