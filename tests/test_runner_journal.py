"""The write-ahead job journal: encoding, torn tails, grid replay.

The satellite contract under test: a journal truncated at *any* byte
offset inside its final record replays cleanly (the torn record is
dropped and reported), while a bad record *followed by more data* is
hard corruption and raises :class:`~repro.errors.JournalError` naming
the byte offset.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import JournalError
from repro.runner.journal import (
    JOURNAL_SCHEMA,
    JournalWriter,
    decode_record,
    encode_record,
    journal_path,
    read_journal,
    replay_grid,
)
from repro.runner.results import RunResult


def _write_records(path, records):
    with JournalWriter(path) as journal:
        for record in records:
            fields = {k: v for k, v in record.items() if k != "kind"}
            journal.append(record["kind"], **fields)


class TestRecordCodec:
    def test_round_trip(self):
        record = {"kind": "shard-done", "index": 3, "result": {"ok": True}}
        assert decode_record(encode_record(record)) == record

    def test_checksum_mismatch_rejected(self):
        line = encode_record({"kind": "grid-start", "total": 4})
        crc, payload = line.split(" ", 1)
        flipped = ("0" * len(crc)) + " " + payload
        with pytest.raises(ValueError, match="checksum"):
            decode_record(flipped)

    def test_missing_checksum_prefix_rejected(self):
        with pytest.raises(ValueError, match="checksum"):
            decode_record('{"kind":"grid-start"}\n')

    def test_non_object_payload_rejected(self):
        import hashlib
        payload = json.dumps([1, 2, 3], separators=(",", ":"))
        crc = hashlib.sha256(payload.encode()).hexdigest()[:16]
        with pytest.raises(ValueError, match="not an object"):
            decode_record(f"{crc} {payload}\n")


    def test_deeply_nested_payload_rejected(self, tmp_path):
        nested = '0000000000000000 {"a":' + "[" * 5000 + "]" * 5000 + "}\n"
        with pytest.raises(ValueError, match="nested"):
            decode_record(nested)
        # read_journal applies its usual rules: a torn final record...
        good = encode_record({"kind": "grid-start", "total": 1})
        path = tmp_path / "j.jsonl"
        path.write_text(good + nested, encoding="utf-8")
        assert read_journal(path).torn_tail_offset == len(good)
        # ...and corruption when more records follow.
        path.write_text(good + nested + good, encoding="utf-8")
        with pytest.raises(JournalError) as excinfo:
            read_journal(path)
        assert excinfo.value.offset == len(good)


class TestJournalWriter:
    def test_appends_are_readable_in_order(self, tmp_path):
        path = tmp_path / "j.jsonl"
        _write_records(path, [
            {"kind": "grid-start", "schema": JOURNAL_SCHEMA, "total": 2},
            {"kind": "shard-start", "index": 0},
            {"kind": "shard-done", "index": 0},
        ])
        replay = read_journal(path)
        assert [r["kind"] for r in replay.records] == [
            "grid-start", "shard-start", "shard-done",
        ]
        assert replay.torn_tail_offset is None

    def test_append_mode_extends(self, tmp_path):
        path = tmp_path / "j.jsonl"
        _write_records(path, [{"kind": "grid-start", "total": 1}])
        with JournalWriter(path, mode="a") as journal:
            journal.append("grid-done")
        assert [r["kind"] for r in read_journal(path).records] == [
            "grid-start", "grid-done",
        ]

    def test_append_mode_heals_torn_tail(self, tmp_path):
        # A crash mid-append leaves a partial final line; re-opening the
        # journal for append must drop it, or the next record lands
        # mid-line and the file becomes unreadable.
        path = tmp_path / "j.jsonl"
        _write_records(path, [
            {"kind": "grid-start", "total": 1},
            {"kind": "shard-done", "index": 0},
        ])
        blob = path.read_bytes()
        path.write_bytes(blob[:-5])  # tear the shard-done record
        with JournalWriter(path, mode="a") as journal:
            journal.append("grid-done")
        replay = read_journal(path)
        assert replay.torn_tail_offset is None
        assert [r["kind"] for r in replay.records] == [
            "grid-start", "grid-done",
        ]

    def test_bad_mode_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="mode"):
            JournalWriter(tmp_path / "j.jsonl", mode="r")

    def test_missing_file_reads_empty(self, tmp_path):
        replay = read_journal(tmp_path / "nope.jsonl")
        assert replay.records == []
        assert replay.torn_tail_offset is None


class TestTornTail:
    def test_truncation_at_every_byte_offset(self, tmp_path):
        """The satellite contract, exhaustively.

        For every prefix of the file: either the cut lands on a record
        boundary (clean replay, no torn tail) or inside the final
        record (that record is dropped and reported at its start
        offset). No prefix may raise.
        """
        path = tmp_path / "j.jsonl"
        _write_records(path, [
            {"kind": "grid-start", "schema": JOURNAL_SCHEMA, "total": 2},
            {"kind": "shard-done", "index": 0, "result": {"status": "ok"}},
            {"kind": "grid-done", "n_ok": 2},
        ])
        blob = path.read_bytes()
        boundaries = [0]
        offset = 0
        for line in blob.splitlines(keepends=True):
            offset += len(line)
            boundaries.append(offset)
        for cut in range(len(blob) + 1):
            torn = tmp_path / "torn.jsonl"
            torn.write_bytes(blob[:cut])
            replay = read_journal(torn)
            if cut in boundaries:
                assert replay.torn_tail_offset is None, cut
                assert len(replay.records) == boundaries.index(cut)
            else:
                start = max(b for b in boundaries if b < cut)
                assert replay.torn_tail_offset == start, cut
                assert len(replay.records) == boundaries.index(start)

    def test_interior_corruption_names_the_offset(self, tmp_path):
        path = tmp_path / "j.jsonl"
        _write_records(path, [
            {"kind": "grid-start", "total": 2},
            {"kind": "shard-done", "index": 0},
            {"kind": "grid-done"},
        ])
        blob = path.read_bytes()
        first_len = blob.index(b"\n") + 1
        # Flip a payload byte of the *second* record: bad record with
        # data after it is corruption, not a crash artifact.
        corrupt = bytearray(blob)
        corrupt[first_len + 20] ^= 0xFF
        path.write_bytes(bytes(corrupt))
        with pytest.raises(JournalError) as excinfo:
            read_journal(path)
        assert excinfo.value.offset == first_len
        assert str(first_len) in str(excinfo.value)


def _fuzz_journal(path):
    """A realistic grid journal; returns its bytes and records."""
    result = RunResult(
        experiment_id="X12", seed=3,
        config={"n": 2, "rate": 1.5e-05, "name": "caf\u00e9"},
        metrics={"p99": 0.123456789, "ok": True, "tail": [1, 2.5, None]},
    )
    _write_records(path, [
        {"kind": "grid-start", "schema": JOURNAL_SCHEMA, "job_id": "abc",
         "total": 2, "spec": {"experiments": ["X12"], "seeds": [3, 4]}},
        {"kind": "shard-start", "index": 0, "experiment": "X12", "seed": 3,
         "attempt": 1},
        {"kind": "shard-done", "index": 0, "result": result.to_dict()},
        {"kind": "grid-done", "job_id": "abc", "n_ok": 1},
    ])
    return path.read_bytes(), read_journal(path).records


class TestInteriorMutations:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        kind=st.sampled_from(["flip", "delete", "insert"]),
        where=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
        value=st.integers(min_value=1, max_value=255),
    )
    def test_only_journal_error_escapes(self, tmp_path, kind, where, value):
        """A byte flipped, deleted or inserted before the final record.

        ``read_journal`` raises :class:`JournalError` at or before the
        mutation -- never another exception type, never a torn-tail
        shrug. The one silent outcome is a mutation that leaves every
        record's value intact (whitespace between JSON tokens, ``1e-05``
        as ``1e-5``): the checksum covers the canonical payload, so the
        same records read back.
        """
        blob, records = _fuzz_journal(tmp_path / "j.jsonl")
        # Interior: inside the records before the last one, short of
        # the newline that ends the last-but-one (breaking that merges
        # two lines into one torn tail, which is a crash shape).
        last_start = blob.rstrip(b"\n").rfind(b"\n") + 1
        position = int(where * (last_start - 1))
        mutated = bytearray(blob)
        if kind == "flip":
            mutated[position] ^= value
        elif kind == "delete":
            del mutated[position]
        else:
            mutated.insert(position, value)
        target = tmp_path / "mutated.jsonl"
        target.write_bytes(bytes(mutated))
        try:
            replay = read_journal(target)
        except JournalError as exc:
            assert exc.offset <= position
        else:
            assert replay.records == records
            assert replay.torn_tail_offset is None


class TestReplayGrid:
    def _done(self, path, index, seed, job_id="job-1", total=2):
        result = RunResult(experiment_id="E1", seed=seed,
                           metrics={"m": index})
        with JournalWriter(path, mode="a") as journal:
            if not path.exists() or index == 0:
                journal.append("grid-start", schema=JOURNAL_SCHEMA,
                               job_id=job_id, total=total, spec={})
            journal.append("shard-done", index=index,
                           result=result.to_dict())
        return result

    def test_replays_completed_shards(self, tmp_path):
        path = tmp_path / "j.jsonl"
        expected = self._done(path, 0, seed=7)
        done = replay_grid(path, "job-1", total=2)
        assert set(done) == {0}
        assert done[0].seed == 7
        assert done[0].to_dict() == expected.to_dict()

    def test_missing_journal_is_empty(self, tmp_path):
        assert replay_grid(tmp_path / "nope.jsonl", "job-1", 4) == {}

    def test_wrong_grid_identity_rejected(self, tmp_path):
        path = tmp_path / "j.jsonl"
        self._done(path, 0, seed=0, job_id="job-1", total=2)
        with pytest.raises(JournalError, match="belongs to grid"):
            replay_grid(path, "job-2", total=2)
        with pytest.raises(JournalError, match="belongs to grid"):
            replay_grid(path, "job-1", total=5)

    def test_out_of_range_index_rejected(self, tmp_path):
        path = tmp_path / "j.jsonl"
        self._done(path, 0, seed=0)
        result = RunResult(experiment_id="E1", seed=1)
        with JournalWriter(path, mode="a") as journal:
            journal.append("shard-done", index=9, result=result.to_dict())
        with pytest.raises(JournalError, match="outside"):
            replay_grid(path, "job-1", total=2)

    def test_journal_without_grid_start_rejected(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with JournalWriter(path) as journal:
            journal.append("shard-done", index=0, result={})
        with pytest.raises(JournalError, match="no grid-start"):
            replay_grid(path, "job-1", total=1)

    def test_journal_paths_fan_out_under_cache(self, tmp_path):
        path = journal_path(tmp_path, "abc123")
        assert path == tmp_path / "journal" / "abc123.jsonl"
