"""Write-ahead job journal: durable, checksummed execution records.

The journal is the runner's crash-recovery backbone: an append-only
JSONL file, written next to the result cache, in which every state
transition of a grid is recorded *before* the process moves on. Each
line is a self-verifying record -- the canonical JSON payload plus a
SHA-256 checksum prefix -- and every append is flushed and ``fsync``'d,
so the journal on disk is always a consistent prefix of execution
history no matter when the process dies (SIGKILL, OOM, power loss).

Record kinds written by :func:`repro.runner.execute_job`:

- ``grid-start`` -- the grid's identity (content-addressed ``job_id``,
  shard count, the canonical spec) opens the journal;
- ``shard-start`` -- a shard was handed to a worker (attempt-stamped);
- ``shard-done`` -- a shard reached a terminal state; the record embeds
  the full serialized :class:`~repro.runner.results.RunResult`, which
  is what resume replays;
- ``grid-done`` -- the sweep merged cleanly.

The service layer reuses the same machinery with ``job-accepted`` /
``job-done`` records (:mod:`repro.service.server`).

**Torn-tail semantics.** A crash can truncate the *final* record at any
byte offset. :func:`read_journal` tolerates exactly that case -- an
undecodable or checksum-failing tail record with nothing after it is
dropped and reported via :attr:`JournalReplay.torn_tail_offset`. A bad
record *followed by more data* is real corruption, not a crash
artifact, and raises :class:`~repro.errors.JournalError` naming the
byte offset; resume never silently skips interior records.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.core.records import REQUIRED, Fields, decode, of
from repro.errors import JournalError, RecordError
from repro.runner.results import RunResult

#: Identifier of the journal line format.
JOURNAL_SCHEMA = "repro.runner/journal/v1"

#: Hex digits of the SHA-256 digest stored per record.
_CRC_HEX = 16

#: The fields :func:`replay_grid` reads from a ``shard-done`` record.
_SHARD_DONE: Fields = {"index": (of(int), REQUIRED),
                       "result": (of(dict), REQUIRED)}


def _payload_json(record: Dict[str, Any]) -> str:
    """The canonical checksummed payload encoding (sorted, compact)."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def _checksum(payload: str) -> str:
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:_CRC_HEX]


def encode_record(record: Dict[str, Any]) -> str:
    """One journal line (with trailing newline) for ``record``."""
    payload = _payload_json(record)
    return f"{_checksum(payload)} {payload}\n"


def decode_record(line: str) -> Dict[str, Any]:
    """Parse and checksum-verify one journal line.

    Raises ``ValueError`` on any malformation (missing separator,
    undecodable or too deeply nested JSON, checksum mismatch); callers
    decide whether that is a tolerable torn tail or hard corruption.
    """
    crc, sep, payload = line.rstrip("\n").partition(" ")
    if not sep or len(crc) != _CRC_HEX:
        raise ValueError("malformed journal line: no checksum prefix")
    try:
        record = json.loads(payload)
        canonical = _payload_json(record)
    except RecursionError as exc:
        raise ValueError("journal payload is nested too deeply") from exc
    if not isinstance(record, dict):
        raise ValueError("journal payload is not an object")
    if _checksum(canonical) != crc:
        raise ValueError("journal checksum mismatch")
    return record


class JournalWriter:
    """Append-only writer with per-record flush + fsync.

    ``mode`` is ``"w"`` to start a fresh journal (a clean, non-resumed
    run re-journals from scratch) or ``"a"`` to extend an existing one
    (resume). Opening in append mode first drops a torn final record
    left by a crash mid-append -- appending *after* a partial line
    would turn a tolerable torn tail into unreadable mid-file
    corruption. The file handle opens lazily on the first append, so
    constructing a writer for a grid that turns out fully cache-served
    still records its history once the first append happens.
    """

    def __init__(self, path: "str | Path", mode: str = "w") -> None:
        if mode not in ("w", "a"):
            raise ValueError(f"journal mode must be 'w' or 'a', got {mode!r}")
        self.path = Path(path)
        self.mode = mode
        self._handle = None

    def _open(self) -> Any:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if self.mode == "a" and self.path.exists():
            torn = read_journal(self.path).torn_tail_offset
            if torn is not None:
                with open(self.path, "r+b") as handle:
                    handle.truncate(torn)
        return open(self.path, self.mode, encoding="utf-8")

    def append(self, kind: str, **fields: Any) -> Dict[str, Any]:
        """Durably append one record; returns the record written.

        The record only "happened" once this returns: the line is
        flushed and ``fsync``'d before control comes back, which is the
        write-ahead property resume relies on.
        """
        record = {"kind": kind, **fields}
        if self._handle is None:
            self._handle = self._open()
        self._handle.write(encode_record(record))
        self._handle.flush()
        os.fsync(self._handle.fileno())
        return record

    def close(self) -> None:
        """Close the underlying handle (appends re-open it)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "JournalWriter":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


@dataclass
class JournalReplay:
    """The readable history of one journal file.

    ``records`` holds every checksum-verified record in append order;
    ``torn_tail_offset`` is the byte offset of a dropped torn final
    record (None when the file ended cleanly).
    """

    records: List[Dict[str, Any]] = field(default_factory=list)
    torn_tail_offset: Optional[int] = None

    def of_kind(self, kind: str) -> List[Dict[str, Any]]:
        """The records matching ``kind``, in append order."""
        return [r for r in self.records if r.get("kind") == kind]


def read_journal(path: "str | Path") -> JournalReplay:
    """Read and verify a journal, tolerating a torn final record.

    Returns an empty replay for a missing file (no history is valid
    history). Raises :class:`~repro.errors.JournalError` -- naming the
    byte offset -- when a bad record is *followed* by more data, which
    cannot be explained by a crash mid-append.
    """
    target = Path(path)
    try:
        blob = target.read_bytes()
    except FileNotFoundError:
        return JournalReplay()
    replay = JournalReplay()
    offset = 0
    remaining = blob
    while remaining:
        line, sep, rest = remaining.partition(b"\n")
        chunk = line + sep
        try:
            record = decode_record(chunk.decode("utf-8", errors="strict"))
            if not sep:
                # A record without its trailing newline never finished
                # its append; only acceptable at the very end.
                raise ValueError("journal record missing trailing newline")
        except ValueError as exc:
            if rest.strip():
                raise JournalError(
                    f"corrupt journal record in {target} at byte offset "
                    f"{offset}: {exc}",
                    offset=offset,
                ) from exc
            replay.torn_tail_offset = offset
            return replay
        replay.records.append(record)
        offset += len(chunk)
        remaining = rest
    return replay


def replay_grid(
    path: "str | Path", job_id: str, total: int
) -> Dict[int, RunResult]:
    """Completed-shard results recorded for grid ``job_id``.

    Validates the journal belongs to this exact grid (same
    content-addressed job id and shard count) and rebuilds a
    ``shard index -> RunResult`` map from the ``shard-done`` records;
    later records for the same index win (a resumed-then-interrupted
    journal can legitimately contain several ``grid-start`` marks).
    Returns an empty map when no journal exists. Raises
    :class:`~repro.errors.JournalError` on identity mismatch, on a shard
    index outside the grid, and on a ``shard-done`` row whose ``index``
    (an int) or ``result`` (a :class:`RunResult` record) does not decode
    -- the :class:`~repro.errors.RecordError` is chained as its cause.
    """
    replay = read_journal(path)
    if not replay.records:
        return {}
    starts = replay.of_kind("grid-start")
    if not starts:
        raise JournalError(
            f"journal {path} has records but no grid-start", offset=0
        )
    for start in starts:
        if start.get("job_id") != job_id or start.get("total") != total:
            raise JournalError(
                f"journal {path} belongs to grid "
                f"{start.get('job_id')!r} ({start.get('total')} shards), "
                f"not {job_id!r} ({total} shards)"
            )
    done: Dict[int, RunResult] = {}
    for record in replay.of_kind("shard-done"):
        try:
            shard = decode(record, "shard-done record", _SHARD_DONE)
            result = RunResult.from_dict(shard["result"])
        except RecordError as exc:
            raise JournalError(
                f"journal {path}: undecodable shard-done record: {exc}"
            ) from exc
        index = shard["index"]
        if not 0 <= index < total:
            raise JournalError(
                f"journal {path}: shard index {index} outside grid of "
                f"{total}"
            )
        done[index] = result
    return done


def journal_path(cache_root: "str | Path", job_id: str) -> Path:
    """Where grid ``job_id``'s journal lives next to the cache."""
    return Path(cache_root) / "journal" / f"{job_id}.jsonl"
