"""ServiceClient transient-failure retry, and malformed replies.

Only transport failures (``code="connection"``) retry: an error
envelope the server actually produced is an answer, not an outage.
``retry_policy=None`` (the ``repro submit --no-retry`` escape hatch)
fails fast on the first failure. A reply the client cannot decode --
a body that is not a JSON object, an error envelope of the wrong
shape, a non-JSON event frame, a results document that does not
decode -- is a :class:`~repro.errors.RecordError` (a ``bad-request``
:class:`~repro.errors.ServiceError`, not retried), never a bare
``TypeError``/``ValueError``/``AttributeError``.
"""

import re
import socket
import threading

import pytest

from repro.client import DEFAULT_RETRY_POLICY, ServiceClient
from repro.engine.resilience import RetryPolicy
from repro.errors import RecordError, ServiceError
from repro.service import wire
from repro.service.schema import JOB_FIELDS, JobResult, decode_job, job_envelope


@pytest.fixture
def no_sleep(monkeypatch):
    """Capture backoff sleeps instead of actually waiting."""
    slept = []
    monkeypatch.setattr("repro.client.time.sleep", slept.append)
    return slept


def _flaky_transport(failures, error=None):
    """A ``_request_once`` stand-in failing ``failures`` times."""
    calls = []

    def transport(method, path, payload=None):
        calls.append((method, path))
        if len(calls) <= failures:
            raise error or ServiceError(
                f"{method} {path} failed: refused", code="connection"
            )
        return {"ok": True, "calls": len(calls)}

    transport.calls = calls
    return transport


class TestConnectionRetry:
    def test_transient_failures_are_retried(self, monkeypatch, no_sleep):
        client = ServiceClient("http://127.0.0.1:1")
        monkeypatch.setattr(client, "_request_once", _flaky_transport(2))
        assert client._request("GET", "/v1/healthz") == {
            "ok": True, "calls": 3,
        }
        assert no_sleep == [
            DEFAULT_RETRY_POLICY.delay_s(1),
            DEFAULT_RETRY_POLICY.delay_s(2),
        ]

    def test_exhausted_attempts_surface_the_failure(
        self, monkeypatch, no_sleep
    ):
        client = ServiceClient("http://127.0.0.1:1")
        transport = _flaky_transport(99)
        monkeypatch.setattr(client, "_request_once", transport)
        with pytest.raises(ServiceError, match="refused"):
            client._request("GET", "/v1/healthz")
        assert len(transport.calls) == DEFAULT_RETRY_POLICY.max_attempts

    def test_server_errors_are_not_retried(self, monkeypatch, no_sleep):
        client = ServiceClient("http://127.0.0.1:1")
        transport = _flaky_transport(
            99, error=ServiceError("queue full", code="over-capacity")
        )
        monkeypatch.setattr(client, "_request_once", transport)
        with pytest.raises(ServiceError, match="queue full"):
            client._request("POST", "/v1/jobs")
        assert len(transport.calls) == 1
        assert no_sleep == []

    def test_no_retry_escape_hatch_fails_fast(self, monkeypatch, no_sleep):
        client = ServiceClient("http://127.0.0.1:1", retry_policy=None)
        transport = _flaky_transport(1)
        monkeypatch.setattr(client, "_request_once", transport)
        with pytest.raises(ServiceError, match="refused"):
            client._request("GET", "/v1/healthz")
        assert len(transport.calls) == 1
        assert no_sleep == []

    def test_custom_policy_bounds_attempts(self, monkeypatch, no_sleep):
        policy = RetryPolicy(max_attempts=2, base_delay_s=0.01)
        client = ServiceClient("http://127.0.0.1:1", retry_policy=policy)
        transport = _flaky_transport(99)
        monkeypatch.setattr(client, "_request_once", transport)
        with pytest.raises(ServiceError):
            client._request("GET", "/v1/healthz")
        assert len(transport.calls) == 2

    def test_retry_rides_out_a_real_restart(self, tmp_path):
        # Submit against a dead port, start the service while the
        # client is backing off: the request must eventually land.
        import threading

        from repro.service.server import serve_in_thread

        handle = serve_in_thread(cache_dir=str(tmp_path))
        try:
            # Generous budget: the service is already up, but the first
            # probing request exercises the same retry path.
            client = ServiceClient(handle.base_url, retry_policy=RetryPolicy(
                max_attempts=6, base_delay_s=0.05,
            ))
            assert client.health()["status"] == "ok"
        finally:
            handle.stop()
        assert threading.active_count() >= 1  # the thread joined cleanly


class TestCliWiring:
    def test_submit_parser_accepts_no_retry(self):
        from repro.__main__ import build_parser

        args = build_parser().parse_args(
            ["submit", "E1", "--no-retry"]
        )
        assert args.no_retry is True
        args = build_parser().parse_args(["submit", "E1"])
        assert args.no_retry is False

    def test_default_policy_is_tuned_for_restarts(self):
        # ~1.75s of total backoff: enough to ride out a service
        # restart, short enough not to mask a dead server.
        total = sum(
            DEFAULT_RETRY_POLICY.delay_s(a)
            for a in range(1, DEFAULT_RETRY_POLICY.max_attempts)
        )
        assert 1.0 <= total <= 5.0


def _canned_http_reply(monkeypatch, status, body):
    """Make every ``http.client`` round trip answer ``status``/``body``."""

    class Connection:
        def __init__(self, *args, **kwargs):
            self.status = status

        def request(self, *args, **kwargs):
            pass

        def getresponse(self):
            return self

        def read(self):
            return body

        def close(self):
            pass

    monkeypatch.setattr("repro.client.http.client.HTTPConnection",
                        Connection)


class TestMalformedReplies:
    def test_body_that_is_not_an_object(self, monkeypatch):
        _canned_http_reply(monkeypatch, 200, b"5")
        client = ServiceClient("http://127.0.0.1:1")
        with pytest.raises(ServiceError, match="must be an object") as info:
            client.health()
        # An answer, not an outage: it fails at once, without a retry.
        assert info.value.code == "bad-request"

    def test_error_envelope_that_is_not_an_object(self, monkeypatch):
        _canned_http_reply(monkeypatch, 500, b'{"error": "boom"}')
        client = ServiceClient("http://127.0.0.1:1", retry_policy=None)
        with pytest.raises(ServiceError) as info:
            client.health()
        assert info.value.code == "bad-request"

    @pytest.mark.parametrize("body, match", [
        (b'{"state": "done"}', "'job_id' is missing"),
        (b'{"job_id": "j", "state": "exploded"}', "'state' must be one of"),
        (b'{"job_id": "j", "state": "done", "result": 5}',
         "'result' must be of type dict"),
    ], ids=["no-job-id", "unknown-state", "result-not-an-object"])
    def test_job_envelope_that_does_not_decode(self, monkeypatch, body,
                                               match):
        _canned_http_reply(monkeypatch, 200, body)
        client = ServiceClient("http://127.0.0.1:1", retry_policy=None)
        for call in (lambda: client.job("j"), lambda: client.wait("j"),
                     lambda: client.submit("E4")):
            with pytest.raises(RecordError, match=match):
                call()

    def test_every_envelope_field_is_in_the_table(self):
        envelope = job_envelope(
            "j", "done", stats={}, error="boom", events=[],
            result=JobResult(job_id="j", status="ok", document={}),
        )
        assert set(envelope) == set(JOB_FIELDS)
        assert decode_job(envelope) is envelope

    def test_submit_reports_a_reply_without_a_job_id(
        self, monkeypatch, tmp_path, capsys
    ):
        from repro.__main__ import main

        monkeypatch.setattr(ServiceClient, "submit",
                            lambda self, *a, **k: {"state": "queued"})
        code = main(["submit", "E4", "--server", "http://127.0.0.1:1",
                     "--out-dir", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "error [bad-request]" in err and "'job_id'" in err
        assert not (tmp_path / "results.json").exists()

    def test_event_frame_that_is_not_json(self):
        server = socket.create_server(("127.0.0.1", 0))
        port = server.getsockname()[1]

        def answer():
            conn, _ = server.accept()
            with conn:
                request = b""
                while b"\r\n\r\n" not in request:
                    request += conn.recv(4096)
                key = re.search(rb"Sec-WebSocket-Key: (\S+)", request)
                conn.sendall(
                    wire.websocket_handshake_response(key.group(1).decode())
                )
                conn.sendall(wire.encode_frame(b"not json"))

        thread = threading.Thread(target=answer, daemon=True)
        thread.start()
        try:
            client = ServiceClient(f"http://127.0.0.1:{port}")
            with pytest.raises(ServiceError, match="not valid JSON"):
                list(client.stream_events("job", timeout_s=10.0))
        finally:
            thread.join(10.0)
            server.close()
        assert not thread.is_alive()

    def test_submit_reports_an_undecodable_document(
        self, monkeypatch, tmp_path, capsys
    ):
        from repro.__main__ import main

        monkeypatch.setattr(ServiceClient, "submit", lambda self, *a, **k: {
            "job_id": "j", "state": "queued",
        })
        monkeypatch.setattr(
            ServiceClient, "result",
            lambda self, job_id, timeout_s=0.0: JobResult(
                job_id=job_id, status="ok", document={"schema": "other/v9"},
            ),
        )
        code = main(["submit", "E4", "--server", "http://127.0.0.1:1",
                     "--out-dir", str(tmp_path)])
        assert code == 2
        assert "error [bad-request]" in capsys.readouterr().err
        assert not (tmp_path / "results.json").exists()
