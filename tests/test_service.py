"""Service lifecycle: coalescing, draining shutdown, stream hygiene.

These tests run a real :class:`~repro.service.server.ExperimentService`
on a background thread and drive it through
:class:`repro.client.ServiceClient` -- the full wire path, not mocked
handlers. Where a test needs a job held *in flight* deterministically
(to force coalescing, or to shut down mid-run), it wraps the real
:func:`repro.runner.api.execute_job` behind a gate the test controls,
so nothing depends on racing the executor.
"""

import asyncio
import io
import json
import multiprocessing
import os
import socket
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.client import ServiceClient
from repro.engine import Registry
from repro.errors import ConfigError, ReproError, ServiceError
from repro.runner import RunResult
from repro.runner import api as runner_api
from repro.runner import entrypoints
from repro.service import SCHEMA_VERSION, serve_in_thread, wire
from repro.service.wire import MAX_BODY_BYTES, MAX_HEADER_LINES

_EXECUTE_JOB = runner_api.execute_job


@pytest.fixture
def service(tmp_path):
    """A running service whose handle and registry the test owns.

    Yields a factory so tests choose limits; tears every started
    service down (and releases any execution gates) even on failure.
    """
    handles = []
    gates = []

    def start(**kwargs):
        kwargs.setdefault("cache_dir", str(tmp_path / "cache"))
        kwargs.setdefault("registry", Registry())
        handle = serve_in_thread(**kwargs)
        handles.append(handle)
        client = ServiceClient(handle.base_url, client_id="test")
        return handle, client, kwargs["registry"]

    start.gates = gates
    yield start
    for gate in gates:
        gate.set()
    for handle in handles:
        try:
            handle.stop(timeout_s=30.0)
        except ServiceError:
            pass


def _gate_execution(monkeypatch, gates):
    """Make execute_job block on a gate, then run for real."""
    gate = threading.Event()
    gates.append(gate)

    def gated(request, **kwargs):
        gate.wait(timeout=60.0)
        return _EXECUTE_JOB(request, **kwargs)

    monkeypatch.setattr(runner_api, "execute_job", gated)
    return gate


class TestCoalescing:
    def test_duplicate_submissions_share_one_run(
        self, service, monkeypatch
    ):
        gate = _gate_execution(monkeypatch, service.gates)
        handle, client, registry = service()
        first = client.submit("E4", quick=True)
        second = client.submit("E4", quick=True)
        assert second["job_id"] == first["job_id"]
        assert second["coalesced"] == 1
        gate.set()
        result = client.result(first["job_id"])
        assert result.ok
        # One grid executed, one pool worker spawned -- not two.
        assert registry.counter("runner.pool_spawns").value == 1
        assert registry.counter("service.submitted").value == 2
        assert registry.counter("service.coalesced").value == 1
        # The coalesced submission is visible in the job's event log.
        notes = [
            e for e in client.events(first["job_id"])
            if e.get("note", "").startswith("coalesced")
        ]
        assert len(notes) == 1

    def test_repeat_of_done_job_is_fully_cache_served(self, service):
        handle, client, registry = service()
        first = client.submit_and_wait("E4", quick=True)
        assert first.ok
        assert first.stats["recomputed"] == 1
        spawns_after_first = registry.counter("runner.pool_spawns").value
        repeat = client.submit_and_wait("E4", quick=True)
        assert repeat.ok
        assert repeat.stats["recomputed"] == 0
        assert repeat.stats["cache_hits"] == 1
        assert repeat.stats["pool_spawns"] == 0
        assert (
            registry.counter("runner.pool_spawns").value
            == spawns_after_first
        )
        assert repeat.document == first.document


class TestShutdown:
    def test_graceful_shutdown_drains_in_flight_jobs(
        self, service, monkeypatch
    ):
        gate = _gate_execution(monkeypatch, service.gates)
        handle, client, registry = service()
        envelope = client.submit("E4", quick=True)
        job_id = envelope["job_id"]
        assert client.shutdown()["status"] == "draining"
        # Draining: no new work accepted while the old job is held.
        with pytest.raises(ServiceError) as excinfo:
            client.submit("E2", quick=True)
        assert excinfo.value.code == "shutting-down"
        assert excinfo.value.status == 503
        gate.set()
        handle.stop(timeout_s=30.0)
        # The in-flight job finished; it was drained, not killed.
        job = handle.service.job_table[job_id]
        assert job.state == "done"
        assert job.result is not None and job.result.ok
        assert registry.counter("service.completed").value == 1


def pid_entrypoint(config, seed):
    """Stands in for X16: reports (and files) the pid that ran it."""
    pid_dir = config.get("pid_dir")
    if pid_dir:
        Path(pid_dir, str(os.getpid())).touch()
    time.sleep(float(config.get("sleep_s", 0.0)))
    return RunResult(experiment_id="X16", seed=seed, config=dict(config),
                     metrics={"pid": os.getpid()})


def _pids(job_result):
    return {row["metrics"]["pid"] for row in job_result.document["results"]}


def _wait_for(condition, timeout_s=30.0):
    deadline = time.monotonic() + timeout_s
    while not condition():
        assert time.monotonic() < deadline, "condition not reached in time"
        time.sleep(0.05)


def _gone(pid):
    try:
        os.kill(pid, 0)  # succeeds for a live or unreaped process
    except ProcessLookupError:
        return True
    return False


class TestWarmWorkers:
    @pytest.fixture(autouse=True)
    def pid_shards(self, monkeypatch):
        # Workers fork from this process, so they resolve the patch.
        monkeypatch.setattr(entrypoints, "run_x16", pid_entrypoint)

    def test_fresh_grids_reuse_the_same_workers(self, service):
        handle, client, registry = service(jobs=2)
        first = client.submit_and_wait("X16", seeds=[0, 1])
        second = client.submit_and_wait("X16", seeds=[2, 3])
        assert first.ok and second.ok
        assert first.stats["pool_spawns"] == second.stats["pool_spawns"] == 2
        pids = _pids(first)
        assert len(pids) == 2 and os.getpid() not in pids
        assert _pids(second) == pids
        # Graceful shutdown closes the pool: no worker outlives it.
        assert client.shutdown()["status"] == "draining"
        handle.stop(timeout_s=30.0)
        assert all(_gone(pid) for pid in pids)
        assert multiprocessing.active_children() == []

    def test_kill_terminates_workers_mid_shard(self, service, tmp_path):
        handle, client, registry = service(jobs=2)
        pid_dir = tmp_path / "pids"
        pid_dir.mkdir()
        client.submit("X16", seeds=[0, 1], overrides=[
            {"pid_dir": str(pid_dir), "sleep_s": 60.0}
        ])
        _wait_for(lambda: len(list(pid_dir.iterdir())) == 2)
        pids = [int(path.name) for path in pid_dir.iterdir()]
        handle.kill(timeout_s=30.0)
        # The grid thread terminates its workers on its next poll.
        _wait_for(lambda: all(_gone(pid) for pid in pids), timeout_s=10.0)
        assert multiprocessing.active_children() == []

    def test_kill_between_grids_terminates_idle_workers(self, service):
        handle, client, registry = service(jobs=2)
        pids = _pids(client.submit_and_wait("X16", seeds=[0, 1]))
        assert not any(_gone(pid) for pid in pids)  # warm, idle
        handle.kill(timeout_s=30.0)
        assert all(_gone(pid) for pid in pids)
        assert multiprocessing.active_children() == []


class TestEventStreaming:
    def test_ws_disconnect_mid_stream_leaves_job_healthy(
        self, service, monkeypatch
    ):
        gate = _gate_execution(monkeypatch, service.gates)
        handle, client, registry = service()
        envelope = client.submit("E4", quick=True)
        job_id = envelope["job_id"]
        stream = client.stream_events(job_id)
        first = next(stream)  # backlog: the queued status event
        assert first["type"] == "status"
        stream.close()  # abrupt client disconnect mid-stream
        gate.set()
        assert client.result(job_id).ok
        # The job ran to completion exactly once and the dead
        # subscriber was reaped -- no orphaned queue, no stuck worker.
        assert registry.counter("runner.pool_spawns").value == 1
        assert handle.service.job_table[job_id].subscribers == []
        assert registry.counter("service.ws_subscribers").value == 1
        # The pool is still serviceable for later jobs.
        assert client.submit_and_wait("E2", quick=True).ok

    def test_stream_replays_backlog_for_finished_job(self, service):
        handle, client, registry = service()
        result = client.submit_and_wait("E4", quick=True)
        events = list(client.stream_events(result.job_id))
        kinds = [e["type"] for e in events]
        assert kinds[0] == "status"
        assert "heartbeat" in kinds
        assert "span" in kinds
        assert kinds[-1] == "status"
        assert [e["seq"] for e in events] == list(range(len(events)))
        assert events == client.events(result.job_id)


class TestEndpoints:
    def test_meta_health_and_404(self, service):
        handle, client, registry = service(max_pending=3, per_client=2)
        meta = client.meta()
        assert meta["service"] == "repro.service"
        assert meta["limits"]["max_pending"] == 3
        assert client.health()["accepting"] is True
        with pytest.raises(ServiceError) as excinfo:
            client.job("f" * 64)
        assert excinfo.value.code == "not-found"
        assert excinfo.value.status == 404

    def test_misspelled_override_fails_its_shard(self, service):
        handle, client, registry = service()
        result = client.submit_and_wait(
            "E4", overrides=[{"speeedup": 9.0}], retries=0
        )
        assert result.status == "failed"
        [record] = result.grid().results
        assert record.status == "error"
        assert "unknown config key(s): speeedup;" in record.error

    def test_wrong_major_version_rejected_on_the_wire(self, service):
        handle, client, registry = service()
        payload = {
            "schema_version": "99.0",
            "client_id": "test",
            "job": {"experiments": ["E4"]},
        }
        with pytest.raises(ServiceError) as excinfo:
            client._request("POST", "/v1/jobs", payload)
        assert excinfo.value.code == "unsupported-version"

    def test_admission_sheds_past_the_pending_bound(
        self, service, monkeypatch
    ):
        gate = _gate_execution(monkeypatch, service.gates)
        handle, client, registry = service(max_pending=1, per_client=10)
        running = client.submit("E4", quick=True)
        # max_active=1: the first job occupies the executor; a second
        # distinct job sits queued and fills the whole pending bound.
        queued = client.submit("E2", quick=True)
        with pytest.raises(ServiceError) as excinfo:
            client.submit("E4", seeds=2, quick=True)
        assert excinfo.value.code == "shed"
        assert excinfo.value.status == 429
        assert registry.counter("service.shed").value == 1
        gate.set()
        assert client.result(running["job_id"]).ok
        assert client.result(queued["job_id"]).ok

    def test_per_client_cap_rejected_with_client_cap_code(
        self, service, monkeypatch
    ):
        gate = _gate_execution(monkeypatch, service.gates)
        handle, client, registry = service(max_pending=16, per_client=1)
        first = client.submit("E4", quick=True)
        with pytest.raises(ServiceError) as excinfo:
            client.submit("E2", quick=True)
        assert excinfo.value.code == "client-cap"
        gate.set()
        assert client.result(first["job_id"]).ok



class TestStartupSettings:
    """Out-of-range settings are refused before the service binds."""

    def test_serve_in_thread_refuses_zero_jobs(self):
        with pytest.raises(ConfigError, match="jobs must be >= 1, got 0"):
            serve_in_thread(jobs=0)

    @pytest.mark.parametrize("flag, message", [
        (["--jobs", "0"], "jobs must be >= 1, got 0"),
        (["--max-pending", "0"], "max_pending must be >= 1, got 0"),
    ], ids=["jobs-0", "max-pending-0"])
    def test_out_of_domain_serve_flag_exits_2(self, flag, message):
        # A subprocess with a timeout: a service that binds anyway
        # would otherwise serve until killed.
        import repro

        env = dict(os.environ,
                   PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
        done = subprocess.run(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--no-cache"] + flag,
            env=env, capture_output=True, text=True, timeout=30,
        )
        assert done.returncode == 2
        assert done.stderr.startswith("error: ") and message in done.stderr
        assert "Traceback" not in done.stderr
        assert '"ready"' not in done.stdout

def _read_both_ways(frame: bytes):
    """``read_frame`` and ``read_frame_blocking`` outcomes for ``frame``.

    Each outcome is the decoded ``(opcode, payload)``, None, or the
    ``(code, status)`` of a raised :class:`ServiceError`.
    """
    async def read_async():
        reader = asyncio.StreamReader()
        reader.feed_data(frame)
        reader.feed_eof()
        return await wire.read_frame(reader)

    outcomes = []
    for read in (lambda: asyncio.run(read_async()),
                 lambda: wire.read_frame_blocking(io.BytesIO(frame))):
        try:
            outcomes.append(read())
        except ServiceError as exc:
            outcomes.append((exc.code, exc.status))
    return outcomes


class TestFrameDecoding:
    def test_async_and_blocking_readers_agree(self):
        key = b"\x12\x34\x56\x78"
        masked = bytes(b ^ key[i % 4] for i, b in enumerate(b"hello"))
        cases = [
            (wire.encode_frame(b"x" * n, mask=mask), (wire.OP_TEXT, b"x" * n))
            for n in (0, 125, 126, 65_535, 65_536)
            for mask in (False, True)
        ] + [
            (bytes([0x81, 0x80 | 5]) + key + masked, (wire.OP_TEXT, b"hello")),
            (bytes([0x82, 127]) + struct.pack(">Q", MAX_BODY_BYTES + 1),
             ("payload-too-large", 413)),
            (wire.encode_frame(b"x" * 200)[:-1], None),
            (b"\x81", None),
        ]
        for frame, expected in cases:
            assert _read_both_ways(frame) == [expected, expected]


#: Fragments that steer arbitrary bytes toward the parsers' branches.
_HTTP_PIECES = st.sampled_from([
    b"GET /v1/healthz HTTP/1.1\r\n", b"POST /v1/jobs HTTP/1.1\r\n",
    b"Content-Length: ", b"content-length:", b"0", b"7", b"-1", b"+5",
    b"\xd9\xa3", b"9" * 30, b"\r\n", b"\n", b"\r\n\r\n", b":", b" ",
    b"X-Filler: y\r\n" * 3, b"a" * 100, b"\x00", b"\xff",
])
_FRAME_PIECES = st.sampled_from([
    b"\x81", b"\x88", b"\x89", b"\x81\x05", b"\x81\x85", b"\x81\x7e",
    b"\x81\xfe", b"\x82\x7f", b"\x82\xff", b"\x00\x05", b"\xff" * 8,
    b"\x12\x34\x56\x78", b"hello",
])


def _wire_bytes(pieces):
    """Arbitrary bytes, or a run of ``pieces`` and arbitrary bytes."""
    return st.one_of(
        st.binary(max_size=300),
        st.lists(st.one_of(pieces, st.binary(max_size=16)),
                 max_size=24).map(b"".join),
    )


def _value_or_repro_error(call):
    """``call()``'s value, or the :class:`ReproError` it raised."""
    try:
        return call()
    except ReproError as exc:
        return exc


class TestWireParsersTakeAnyBytes:
    """Bytes from a peer parse to a value or ``None``, or raise a
    :mod:`repro.errors` type; nothing else escapes."""

    @given(data=_wire_bytes(_HTTP_PIECES),
           limit=st.sampled_from([16, 64, 2 ** 16]))
    @settings(max_examples=200, deadline=None)
    def test_read_http_request(self, data, limit):
        async def read():
            reader = asyncio.StreamReader(limit=limit)
            reader.feed_data(data)
            reader.feed_eof()
            return await wire.read_http_request(reader)

        outcome = _value_or_repro_error(lambda: asyncio.run(read()))
        assert outcome is None or isinstance(
            outcome, (wire.HttpRequest, ReproError)
        )

    @given(data=_wire_bytes(_FRAME_PIECES))
    @settings(max_examples=200, deadline=None)
    def test_read_frame_blocking(self, data):
        outcome = _value_or_repro_error(
            lambda: wire.read_frame_blocking(io.BytesIO(data))
        )
        assert outcome is None or isinstance(outcome, ReproError) or (
            isinstance(outcome, tuple) and isinstance(outcome[1], bytes)
        )


def _raw_exchange(handle, payload: bytes):
    """Send raw bytes to the service; return (status, decoded body).

    Every malformed request below is sent in full, so the server has
    read all of it when it answers and closes cleanly.
    """
    with socket.create_connection((handle.host, handle.port),
                                  timeout=30.0) as sock:
        sock.sendall(payload)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(body)


def _endless_line_exchange(handle, n_bytes: int):
    """Stream ``n_bytes`` with no newline; return (status, decoded body).

    The server answers before the stream ends, so the bytes go out from
    a second thread, and a reset after the response is read is the
    expected end of the connection, not a failure.
    """
    with socket.create_connection((handle.host, handle.port),
                                  timeout=30.0) as sock:
        def send() -> None:
            chunk = b"a" * 65536
            try:
                for _ in range(n_bytes // len(chunk)):
                    sock.sendall(chunk)
            except OSError:
                pass

        sender = threading.Thread(target=send, daemon=True)
        sender.start()
        chunks = []
        while True:
            try:
                chunk = sock.recv(65536)
            except ConnectionResetError:
                break
            if not chunk:
                break
            chunks.append(chunk)
        sender.join(timeout=30.0)
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(body)


class TestMalformedRequests:
    """Bytes the service does not control fail with the error envelope.

    Each case must come back as a 400 ``bad-request`` envelope on the
    same connection (not a dropped connection), and the service must
    keep serving afterwards.
    """

    def _assert_bad_request(self, handle, client, payload):
        status, body = _raw_exchange(handle, payload)
        assert status == 400
        assert body == {
            "schema_version": SCHEMA_VERSION,
            "error": {"code": "bad-request",
                      "message": body["error"]["message"]},
        }
        assert client.health()["accepting"] is True

    @pytest.mark.parametrize("value", [b"abc", b"-1", b"+5", b""])
    def test_invalid_content_length(self, service, value):
        handle, client, registry = service()
        self._assert_bad_request(
            handle, client,
            b"POST /v1/jobs HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: " + value + b"\r\n\r\n",
        )
        assert registry.counter("service.errors").value == 1

    def test_too_many_header_lines(self, service):
        handle, client, registry = service()
        headers = b"".join(
            b"X-Filler-%d: y\r\n" % i for i in range(MAX_HEADER_LINES + 1)
        )
        # No terminating blank line: the server stops reading at the
        # first line past the cap, so nothing is left unread.
        self._assert_bad_request(
            handle, client, b"GET /v1/healthz HTTP/1.1\r\n" + headers
        )

    def test_request_line_over_reader_limit(self, service):
        # Longer than the 64 KiB StreamReader limit; the server skips
        # the whole line before answering, so nothing is left unread.
        handle, client, registry = service()
        self._assert_bad_request(
            handle, client,
            b"GET /" + b"a" * (70 * 1024) + b" HTTP/1.1\r\n",
        )
        assert registry.counter("service.errors").value == 1

    def test_header_line_over_reader_limit(self, service):
        handle, client, registry = service()
        self._assert_bad_request(
            handle, client,
            b"GET /v1/healthz HTTP/1.1\r\nX-Filler: "
            + b"y" * (70 * 1024) + b"\r\n",
        )
        assert registry.counter("service.errors").value == 1

    def test_endless_request_line_stops_at_cap(self, service):
        # A peer that never sends a newline: the skip gives up after
        # MAX_BODY_BYTES and answers while the stream is still coming.
        handle, client, registry = service()
        status, body = _endless_line_exchange(handle, 2 * MAX_BODY_BYTES)
        assert status == 400
        assert body["error"]["code"] == "bad-request"
        assert client.health()["accepting"] is True
        assert registry.counter("service.errors").value == 1

    def test_deeply_nested_body(self, service):
        # Far below MAX_BODY_BYTES, but deeper than the JSON decoder's
        # recursion limit.
        handle, client, registry = service()
        body = b'{"job": ' + b"[" * 5000 + b"]" * 5000 + b"}"
        assert len(body) < MAX_BODY_BYTES
        self._assert_bad_request(
            handle, client,
            b"POST /v1/jobs HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
            % len(body) + body,
        )
        assert registry.counter("service.errors").value == 1

    def _assert_submit_rejected(self, service, request):
        handle, client, registry = service()
        body = json.dumps(
            {"schema_version": SCHEMA_VERSION, **request}
        ).encode()
        self._assert_bad_request(
            handle, client,
            b"POST /v1/jobs HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
            % len(body) + body,
        )
        assert registry.counter("service.errors").value == 1

    @pytest.mark.parametrize("job", [
        {"experiments": ["E4"], "timeout_s": "abc"},
        {"experiments": ["E4"], "overrides": [3]},
        {"experiments": ["E4"], "quick": "no"},
    ], ids=["timeout-not-a-number", "override-not-an-object",
            "quick-not-a-bool"])
    def test_malformed_job_field(self, service, job):
        self._assert_submit_rejected(service, {"job": job})

    @pytest.mark.parametrize("field", [
        {"use_cache": "no"},
    ], ids=["use-cache-not-a-bool"])
    def test_malformed_request_field(self, service, field):
        self._assert_submit_rejected(
            service, {"job": {"experiments": ["E4"]}, **field}
        )

    def test_overlong_content_length_is_payload_too_large(self, service):
        handle, client, registry = service()
        status, body = _raw_exchange(
            handle,
            b"POST /v1/jobs HTTP/1.1\r\nContent-Length: "
            + b"9" * 5000 + b"\r\n\r\n",
        )
        assert status == 413
        assert body["error"]["code"] == "payload-too-large"
