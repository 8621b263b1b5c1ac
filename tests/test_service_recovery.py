"""Service crash recovery: the job journal across restarts.

A service SIGKILLed (here: hard-stopped in-process via
``ServiceHandle.kill``) must leave accepted-but-unfinished jobs in its
journal; the next service started on the same cache directory re-admits
them in the ``recovered`` state and completes them, while completed
jobs resolve from the cache without any pool work.
"""

import time

from repro.client import ServiceClient
from repro.runner.journal import JournalWriter, journal_path, read_journal
from repro.service.server import ExperimentService, serve_in_thread

#: A fast, deterministic inner workload (the X16 probe shard).
PROBE = {"probe": True, "sleep_s": 0.0}
#: The same shard stretched so a kill can land while it is in flight.
SLOW_PROBE = {"probe": True, "sleep_s": 1.5}


def _client(handle):
    return ServiceClient(handle.base_url, client_id="recovery-test")


class TestServiceJournal:
    def test_accepted_and_done_jobs_are_journalled(self, tmp_path):
        handle = serve_in_thread(cache_dir=str(tmp_path))
        try:
            client = _client(handle)
            envelope = client.submit("X16", seeds=1, overrides=[PROBE])
            client.wait(envelope["job_id"])
        finally:
            handle.stop()
        journal = tmp_path / "service-journal.jsonl"
        replay = read_journal(journal)
        accepted = replay.of_kind("job-accepted")
        done = replay.of_kind("job-done")
        assert [r["job_id"] for r in accepted] == [envelope["job_id"]]
        assert [r["job_id"] for r in done] == [envelope["job_id"]]
        assert done[0]["state"] == "done"
        # The accepted record embeds the full request: recovery can
        # rebuild the submission from the journal alone.
        assert accepted[0]["request"]["job"]["experiments"] == ["X16"]

    def test_clean_restart_recovers_nothing(self, tmp_path):
        handle = serve_in_thread(cache_dir=str(tmp_path))
        try:
            client = _client(handle)
            client.wait(client.submit(
                "X16", seeds=1, overrides=[PROBE]
            )["job_id"])
        finally:
            handle.stop()
        service = ExperimentService(cache_dir=str(tmp_path))
        assert service.recover_jobs() == 0

    def test_no_cache_dir_means_no_journal(self):
        service = ExperimentService(cache_dir=None)
        assert service.journal_path() is None
        assert service.recover_jobs() == 0


class TestKillAndRecover:
    def test_killed_service_readmits_and_completes_the_job(self, tmp_path):
        first = serve_in_thread(cache_dir=str(tmp_path))
        client = _client(first)
        envelope = client.submit("X16", seeds=1, overrides=[SLOW_PROBE])
        job_id = envelope["job_id"]
        first.kill()  # in-process stand-in for SIGKILLing `repro serve`

        second = serve_in_thread(cache_dir=str(tmp_path))
        try:
            client = _client(second)
            final = client.wait(job_id, timeout_s=60.0)
            assert final["state"] == "done"
            assert final["result"]["status"] == "ok"
            counters = client.metrics()["metrics"]["counters"]
            assert counters["service.jobs_recovered"] == 1
            # The recovered job's event stream says how it came back.
            states = [
                e.get("state") for e in client.events(job_id)
                if e.get("type") == "status"
            ]
            assert "recovered" in states
        finally:
            second.stop()

    def test_completed_work_resubmitted_after_kill_is_cache_served(
        self, tmp_path
    ):
        first = serve_in_thread(cache_dir=str(tmp_path))
        client = _client(first)
        done_id = client.submit("X16", seeds=1, overrides=[PROBE])["job_id"]
        client.wait(done_id)
        client.submit("X16", seeds=1, overrides=[SLOW_PROBE])
        first.kill()

        second = serve_in_thread(cache_dir=str(tmp_path))
        try:
            client = _client(second)
            # The finished job is NOT re-admitted (its job-done record
            # is terminal)...
            assert client.metrics()["metrics"]["counters"][
                "service.jobs_recovered"
            ] == 1
            # ...and resubmitting it is served entirely from cache:
            # zero pool spawns, zero recomputes.
            envelope = client.submit("X16", seeds=1, overrides=[PROBE])
            final = client.wait(envelope["job_id"], timeout_s=60.0)
            stats = final["result"]["stats"]
            assert stats["pool_spawns"] == 0
            assert stats["recomputed"] == 0
        finally:
            second.stop()


    def test_warm_pool_kill_keeps_finished_shards(self, tmp_path):
        # On pool workers the kill terminates the slow shard mid-run;
        # the fast one already landed in the cache, so the recovered
        # job recomputes only the slow one.
        first = serve_in_thread(cache_dir=str(tmp_path), jobs=2)
        client = _client(first)
        job_id = client.submit(
            "X16", seeds=1, overrides=[PROBE, SLOW_PROBE]
        )["job_id"]
        grid_journal = journal_path(str(tmp_path), job_id)
        deadline = time.monotonic() + 30.0
        while not (grid_journal.exists()
                   and read_journal(grid_journal).of_kind("shard-done")):
            assert time.monotonic() < deadline
            time.sleep(0.02)
        first.kill()

        second = serve_in_thread(cache_dir=str(tmp_path), jobs=2)
        try:
            client = _client(second)
            final = client.wait(job_id, timeout_s=60.0)
            assert final["state"] == "done"
            stats = final["result"]["stats"]
            assert stats["cache_hits"] == 1
            assert stats["pool_spawns"] == 1
            assert stats["recomputed"] == 1
            repeat = client.submit_and_wait(
                "X16", seeds=1, overrides=[PROBE, SLOW_PROBE]
            )
            assert repeat.stats["pool_spawns"] == 0
            assert repeat.document == final["result"]["document"]
        finally:
            second.stop()


class TestRecoveryEdgeCases:
    def test_unreadable_journalled_request_is_skipped(self, tmp_path):
        journal = tmp_path / "service-journal.jsonl"
        with JournalWriter(journal) as writer:
            writer.append("job-accepted", job_id="bogus",
                          request={"not": "a submit request"})
        service = ExperimentService(cache_dir=str(tmp_path))
        assert service.recover_jobs() == 0
        snapshot = service.registry.snapshot()
        assert snapshot["counters"]["service.recover_skipped"] == 1

    def test_last_state_wins_across_restart_generations(self, tmp_path):
        # accepted -> done -> accepted again (a resubmission the crash
        # interrupted): the job must be re-admitted exactly once.
        handle = serve_in_thread(cache_dir=str(tmp_path))
        try:
            client = _client(handle)
            job_id = client.submit(
                "X16", seeds=1, overrides=[PROBE]
            )["job_id"]
            client.wait(job_id)
        finally:
            handle.stop()
        journal = tmp_path / "service-journal.jsonl"
        replay = read_journal(journal)
        request = replay.of_kind("job-accepted")[0]["request"]
        with JournalWriter(journal, mode="a") as writer:
            writer.append("job-accepted", job_id=job_id, request=request)
        restarted = serve_in_thread(cache_dir=str(tmp_path))
        try:
            client = _client(restarted)
            counters = client.metrics()["metrics"]["counters"]
            assert counters["service.jobs_recovered"] == 1
            final = client.wait(job_id, timeout_s=60.0)
            assert final["state"] == "done"
        finally:
            restarted.stop()

    def test_torn_service_journal_tail_is_healed(self, tmp_path):
        journal = tmp_path / "service-journal.jsonl"
        with JournalWriter(journal) as writer:
            record = writer.append("job-accepted", job_id="j1",
                                   request={"x": 1})
        blob = journal.read_bytes()
        journal.write_bytes(blob + b'deadbeef {"torn": ')
        with JournalWriter(journal, mode="a") as writer:
            writer.append("job-done", job_id="j1", state="done")
        replay = read_journal(journal)
        assert replay.torn_tail_offset is None
        assert [r["kind"] for r in replay.records] == [
            "job-accepted", "job-done",
        ]
        assert replay.records[0] == record
