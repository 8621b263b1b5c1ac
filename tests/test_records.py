"""The one strict decoder, and every record that goes through it.

Each record read from outside the process states its fields once, as a
``FIELDS`` table decoded by :func:`repro.core.records.decode`. The
properties here put any JSON value in any field of each record: it
either decodes or raises :class:`~repro.errors.RecordError`, never
another exception, and a valid record survives ``to_dict`` -> JSON ->
``from_dict`` unchanged. The checklist test ties each table to the
keys its record writes, so a new wire field cannot ship without a
decoder row.
"""

import ast
import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.records import (
    REAL,
    REQUIRED,
    decode,
    list_of,
    loads,
    of,
    one_of,
)
from repro.engine import Registry
from repro.errors import JournalError, RecordError, ServiceError
from repro.runner.cache import ResultCache
from repro.runner.journal import JOURNAL_SCHEMA, JournalWriter, replay_grid
from repro.runner.results import RUN_STATUSES, GridResult, RunResult
from repro.service.schema import JobResult, JobSpec, SubmitRequest

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: Any JSON value, NaN and infinities included (``json`` reads both).
ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children)
    | st.dictionaries(st.text(), children),
    max_leaves=8,
)

#: JSON values that compare equal to themselves (no NaN).
PLAIN_JSON = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False) | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=6,
)
JSON_OBJECTS = st.dictionaries(st.text(max_size=6), PLAIN_JSON, max_size=4)

RUN_RESULTS = st.builds(
    RunResult,
    experiment_id=st.text(max_size=8),
    seed=st.integers(),
    config=JSON_OBJECTS,
    metrics=JSON_OBJECTS,
    status=st.sampled_from(RUN_STATUSES),
    error=st.none() | st.text(max_size=16),
    attempts=st.integers(min_value=1, max_value=9),
)


def _through_json(record):
    return json.loads(json.dumps(record))


def _decodes_or_record_error(from_dict, record):
    try:
        from_dict(record)
    except RecordError as exc:
        assert (exc.code, exc.status) == ("bad-request", 400)


class TestDecoder:
    FIELDS = {
        "seed": (of(int), REQUIRED),
        "rate": (REAL, 1.0),
        "tags": (list_of(of(str)), []),
        "mode": (one_of("fast", "slow"), "fast"),
    }

    def test_defaults_fill_absent_fields_and_unknown_keys_are_ignored(self):
        decoded = decode({"seed": 3, "extra": object()}, "rec", self.FIELDS)
        assert decoded == {"seed": 3, "rate": 1.0, "tags": [], "mode": "fast"}

    def test_a_default_is_copied(self):
        decode({"seed": 0}, "rec", self.FIELDS)["tags"].append("x")
        assert self.FIELDS["tags"][1] == []

    @pytest.mark.parametrize("record, field", [
        ({}, "seed"),
        ({"seed": True}, "seed"),
        ({"seed": 1.0}, "seed"),
        ({"seed": 0, "rate": float("nan")}, "rate"),
        ({"seed": 0, "rate": 10**400}, "rate"),
        ({"seed": 0, "rate": "1"}, "rate"),
        ({"seed": 0, "tags": ["a", 1]}, "tags"),
        ({"seed": 0, "tags": "ab"}, "tags"),
        ({"seed": 0, "mode": "FAST"}, "mode"),
        ({"seed": 0, "mode": ["fast"]}, "mode"),
    ])
    def test_a_failing_field_is_named(self, record, field):
        with pytest.raises(RecordError, match=f"rec field '{field}'"):
            decode(record, "rec", self.FIELDS)

    def test_a_non_object_is_a_record_error(self):
        with pytest.raises(RecordError, match="rec must be an object"):
            decode([1, 2], "rec", self.FIELDS)

    def test_real_accepts_infinity_and_ints_that_fit(self):
        decoded = decode({"seed": 0, "rate": float("inf")}, "rec", self.FIELDS)
        assert decoded["rate"] == float("inf")
        assert decode({"seed": 0, "rate": 7}, "rec", self.FIELDS)["rate"] == 7

    def test_record_error_is_the_bad_request_envelope(self):
        error = RecordError("rec field 'seed' is missing")
        assert isinstance(error, ServiceError)
        assert (error.code, error.status) == ("bad-request", 400)

    @pytest.mark.parametrize("text", [
        "{nope", b"\xff", "[1]", "[" * 5000 + "]" * 5000,
    ], ids=["not-json", "not-utf8", "not-an-object", "nested-too-deeply"])
    def test_loads_wants_a_json_object(self, text):
        with pytest.raises(RecordError, match="^rec "):
            loads(text, "rec")
        assert loads(b'{"a": 1}', "rec") == {"a": 1}


class TestRecordProperties:
    @given(run=RUN_RESULTS)
    @settings(max_examples=100, deadline=None)
    def test_run_result_round_trips(self, run):
        assert RunResult.from_dict(_through_json(run.to_dict())) == run

    @given(field=st.sampled_from(sorted(RunResult.FIELDS)), value=ANY_JSON)
    @example(field="attempts", value=float("inf"))
    @example(field="metrics", value=[["a", 1]])
    @example(field="seed", value="3")
    @settings(max_examples=100, deadline=None)
    def test_any_json_in_a_run_result_field(self, field, value):
        record = RunResult(experiment_id="E4", seed=0).to_dict()
        record[field] = value
        _decodes_or_record_error(RunResult.from_dict, record)

    @given(runs=st.lists(RUN_RESULTS, max_size=3))
    @settings(max_examples=50, deadline=None)
    def test_grid_result_round_trips(self, runs):
        grid = GridResult(results=runs)
        assert GridResult.from_dict(_through_json(grid.to_dict())) == grid

    @given(field=st.sampled_from(sorted(GridResult.FIELDS)), value=ANY_JSON)
    @example(field="results", value=[{"experiment": "E4", "seed": "3"}])
    @example(field="results", value=[5])
    @settings(max_examples=100, deadline=None)
    def test_any_json_in_a_grid_result_field(self, field, value):
        record = GridResult([RunResult(experiment_id="E4", seed=0)]).to_dict()
        record[field] = value
        _decodes_or_record_error(GridResult.from_dict, record)

    @given(
        job_id=st.text(max_size=8),
        status=st.sampled_from(["ok", "failed"]),
        document=JSON_OBJECTS,
        stats=JSON_OBJECTS,
    )
    @settings(max_examples=50, deadline=None)
    def test_job_result_round_trips(self, job_id, status, document, stats):
        result = JobResult(job_id=job_id, status=status, document=document,
                           stats=stats)
        assert JobResult.from_dict(_through_json(result.to_dict())) == result

    @given(field=st.sampled_from(sorted(JobResult.FIELDS)), value=ANY_JSON)
    @example(field="schema_version", value="99.0")
    @settings(max_examples=100, deadline=None)
    def test_any_json_in_a_job_result_field(self, field, value):
        record = JobResult(job_id="j", status="ok", document={}).to_dict()
        record[field] = value
        try:
            JobResult.from_dict(record)
        except ServiceError as exc:
            # A wrong major version keeps its own code.
            assert exc.code in ("bad-request", "unsupported-version")
            assert isinstance(exc, RecordError) == (exc.code == "bad-request")


class TestTablesNameEveryWireKey:
    """The checklist: each decoded record's table names its wire keys."""

    SAMPLES = {
        "RunResult": RunResult(experiment_id="E4", seed=0),
        "GridResult": GridResult([RunResult(experiment_id="E4", seed=0)]),
        "JobSpec": JobSpec(experiments=("E4",)),
        "SubmitRequest": SubmitRequest(job=JobSpec(experiments=("E4",))),
        "JobResult": JobResult(job_id="j", status="ok", document={}),
    }

    def test_every_record_with_a_decoder_has_a_sample(self):
        decoded = {
            node.name
            for path in SRC.rglob("*.py")
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ClassDef)
            and any(isinstance(member, ast.FunctionDef)
                    and member.name == "from_dict" for member in node.body)
        }
        assert decoded == set(self.SAMPLES)

    @pytest.mark.parametrize("name", sorted(SAMPLES))
    def test_table_names_equal_to_dict_keys(self, name):
        sample = self.SAMPLES[name]
        assert sorted(type(sample).FIELDS) == sorted(sample.to_dict())


class TestOutsideRecordRegressions:
    def test_run_result_rejects_a_string_seed(self):
        record = RunResult(experiment_id="E4", seed=3).to_dict()
        record["seed"] = "3"
        with pytest.raises(RecordError, match="'seed'"):
            RunResult.from_dict(record)

    def test_cache_entry_with_overflowing_attempts_is_quarantined(
        self, tmp_path
    ):
        cache = ResultCache(tmp_path / "cache", registry=Registry())
        key = "e" * 64
        cache.put(key, RunResult(experiment_id="E4", seed=0))
        path = cache.root / key[:2] / f"{key}.json"
        path.write_text(
            path.read_text().replace('"attempts": 1', '"attempts": 1e999'),
            encoding="utf-8",
        )
        assert cache.get(key) is None
        assert path.with_suffix(".corrupt").exists()
        assert cache.registry.counter("runner.cache_corrupt").value == 1

    def test_cache_entry_that_is_not_utf8_is_quarantined(self, tmp_path):
        cache = ResultCache(tmp_path / "cache", registry=Registry())
        key = "f" * 64
        cache.put(key, RunResult(experiment_id="E4", seed=0))
        path = cache.root / key[:2] / f"{key}.json"
        path.write_bytes(b'{"experiment": "\xff"}')
        assert cache.get(key) is None
        assert path.with_suffix(".corrupt").exists()
        assert cache.registry.counter("runner.cache_corrupt").value == 1

    def test_journal_index_must_be_an_int(self, tmp_path):
        path = tmp_path / "j.jsonl"
        result = RunResult(experiment_id="E1", seed=0)
        with JournalWriter(path) as journal:
            journal.append("grid-start", schema=JOURNAL_SCHEMA,
                           job_id="job-1", total=5, spec={})
            journal.append("shard-done", index="3", result=result.to_dict())
        with pytest.raises(JournalError, match="'index'"):
            replay_grid(path, "job-1", total=5)
