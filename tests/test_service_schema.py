"""The versioned wire contract: specs, envelopes, version gating."""

import json
from dataclasses import fields

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ServiceError
from repro.service.schema import (
    SCHEMA_VERSION,
    JobResult,
    JobSpec,
    SubmitRequest,
    check_schema_version,
    decode_submit_request,
    envelope_error,
    error_envelope,
    job_envelope,
    stable_json,
)


class TestSchemaVersion:
    def test_current_version_accepted(self):
        assert check_schema_version(SCHEMA_VERSION) == SCHEMA_VERSION

    def test_minor_skew_accepted(self):
        major = SCHEMA_VERSION.split(".", 1)[0]
        assert check_schema_version(f"{major}.9") == f"{major}.9"

    def test_major_skew_rejected(self):
        with pytest.raises(ServiceError) as excinfo:
            check_schema_version("99.0")
        assert excinfo.value.code == "unsupported-version"
        assert excinfo.value.status == 400

    def test_missing_version_rejected(self):
        for bad in (None, "", 1.0):
            with pytest.raises(ServiceError) as excinfo:
                check_schema_version(bad)
            assert excinfo.value.code == "bad-request"


class TestJobSpec:
    def test_job_id_is_stable(self):
        spec = JobSpec(experiments=("E2",), seeds=(0, 1))
        assert spec.job_id() == spec.job_id()
        assert len(spec.job_id()) == 64

    def test_job_id_case_insensitive_in_experiment_ids(self):
        lower = JobSpec(experiments=("e2",))
        upper = JobSpec(experiments=("E2",))
        assert lower.job_id() == upper.job_id()

    def test_job_id_varies_with_grid(self):
        base = JobSpec(experiments=("E2",))
        assert JobSpec(experiments=("E2",), seeds=(1,)).job_id() != base.job_id()
        assert JobSpec(experiments=("E4",)).job_id() != base.job_id()
        assert (
            JobSpec(experiments=("E2",), quick=True).job_id() != base.job_id()
        )

    def test_canonical_resolves_and_dedupes(self):
        spec = JobSpec(experiments=("e2", "E2", "e4"))
        assert spec.canonical().experiments == ("E2", "E4")

    def test_roundtrip_through_wire_form(self):
        spec = JobSpec(
            experiments=("E2",), seeds=(0, 1),
            overrides=({"n": 5},), quick=True, timeout_s=9.0, retries=2,
        )
        assert JobSpec.from_dict(spec.to_dict()) == spec

    def test_unknown_keys_ignored(self):
        record = JobSpec(experiments=("E2",)).to_dict()
        record["from_the_future"] = True
        assert JobSpec.from_dict(record) == JobSpec(experiments=("E2",))

    def test_validation_rejects_bad_specs(self):
        with pytest.raises(ServiceError):
            JobSpec(experiments=())
        with pytest.raises(ServiceError):
            JobSpec(experiments=("E2",), seeds=())
        with pytest.raises(ServiceError):
            JobSpec(experiments=("E2",), seeds=(True,))
        with pytest.raises(ServiceError):
            JobSpec(experiments=("E2",), retries=-1)
        with pytest.raises(ServiceError):
            JobSpec(experiments=("E2",), timeout_s=0.0)


class TestSubmitRequest:
    def test_roundtrip(self):
        request = SubmitRequest(
            job=JobSpec(experiments=("E2",)), client_id="c1", use_cache=False
        )
        assert SubmitRequest.from_dict(request.to_dict()) == request

    def test_decode_rejects_bad_json(self):
        with pytest.raises(ServiceError) as excinfo:
            decode_submit_request(b"{nope")
        assert excinfo.value.code == "bad-request"

    def test_decode_rejects_deeply_nested_json(self):
        body = b'{"job": ' + b"[" * 5000 + b"]" * 5000 + b"}"
        with pytest.raises(ServiceError) as excinfo:
            decode_submit_request(body)
        assert excinfo.value.code == "bad-request"
        assert excinfo.value.status == 400

    def test_decode_rejects_wrong_major(self):
        record = SubmitRequest(job=JobSpec(experiments=("E2",))).to_dict()
        record["schema_version"] = "99.0"
        with pytest.raises(ServiceError) as excinfo:
            decode_submit_request(json.dumps(record))
        assert excinfo.value.code == "unsupported-version"

    def test_decode_rejects_empty_client(self):
        record = SubmitRequest(job=JobSpec(experiments=("E2",))).to_dict()
        record["client_id"] = ""
        with pytest.raises(ServiceError):
            decode_submit_request(json.dumps(record))

    @given(
        field=st.sampled_from([f.name for f in fields(JobSpec)]),
        value=st.recursive(
            st.none() | st.booleans() | st.integers() | st.floats()
            | st.text(),
            lambda children: st.lists(children)
            | st.dictionaries(st.text(), children),
            max_leaves=8,
        ),
    )
    @example(field="timeout_s", value=10**400)
    @example(field="timeout_s", value="abc")
    @example(field="overrides", value=[3])
    @example(field="retries", value=float("inf"))
    @settings(max_examples=100, deadline=None)
    def test_any_json_in_a_job_field_decodes_or_is_a_service_error(
        self, field, value
    ):
        record = SubmitRequest(job=JobSpec(experiments=("E2",))).to_dict()
        record["job"][field] = value
        try:
            decode_submit_request(json.dumps(record))
        except ServiceError as exc:
            assert (exc.code, exc.status) == ("bad-request", 400)


class TestJobResult:
    def test_roundtrip_and_ok(self):
        result = JobResult(
            job_id="a" * 64, status="ok",
            document={"schema": "repro.runner/results/v1"},
            stats={"recomputed": 1},
        )
        assert result.ok
        decoded = JobResult.from_dict(result.to_dict())
        assert decoded == result

    def test_bad_status_rejected(self):
        with pytest.raises(ServiceError):
            JobResult(job_id="x", status="exploded", document={})

    @pytest.mark.parametrize("field, value", [
        ("document", [1]), ("stats", "ab"), ("job_id", 7),
    ], ids=["document-not-an-object", "stats-not-an-object",
            "job-id-not-a-string"])
    def test_malformed_reply_field_rejected(self, field, value):
        # A malformed server reply surfaces as a ServiceError, never a
        # bare TypeError/ValueError from dict().
        record = JobResult(job_id="x", status="ok", document={}).to_dict()
        record[field] = value
        with pytest.raises(ServiceError):
            JobResult.from_dict(record)


class TestEnvelopes:
    def test_error_envelope_roundtrip(self):
        payload = error_envelope("shed", "queue full")
        assert payload["schema_version"] == SCHEMA_VERSION
        rebuilt = envelope_error(payload, status=429)
        assert rebuilt.code == "shed"
        assert rebuilt.status == 429
        assert "queue full" in str(rebuilt)

    def test_job_envelope_shape(self):
        payload = job_envelope("j1", "running", coalesced=2)
        assert payload["state"] == "running"
        assert payload["coalesced"] == 2
        assert "result" not in payload

    def test_job_envelope_rejects_unknown_state(self):
        with pytest.raises(ServiceError):
            job_envelope("j1", "meditating")

    def test_stable_json_is_canonical(self):
        assert stable_json({"b": 1, "a": [2]}) == '{"a":[2],"b":1}'
