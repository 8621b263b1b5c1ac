"""Worker-crash containment and crash-safe grid resume.

A worker SIGKILLed mid-shard (OOM killer, operator, chaos) must be
respawned and its shard retried; a shard that kills its worker twice is
quarantined as ``crashed`` without poisoning sibling shards; and a grid
interrupted at *any* point -- worker or parent -- resumes from the
write-ahead journal to the byte-identical canonical document.

The crashing entrypoints live at module scope so forked pool workers
can resolve them by dotted path.
"""

import json
import multiprocessing
import os
import signal
import time

import pytest

from repro.errors import ConfigError
from repro.runner.api import run_grid
from repro.runner.journal import journal_path, read_journal
from repro.runner.pool import ShardSpec, WorkerPool, run_shards
from repro.runner.results import RunResult


def suicidal_entrypoint(config, seed):
    """SIGKILL the worker on every attempt: never completes."""
    os.kill(os.getpid(), signal.SIGKILL)


def crash_once_entrypoint(config, seed):
    """SIGKILL the worker on the first attempt only (marker file)."""
    marker = os.path.join(config["marker_dir"], f"crashed-{seed}")
    if not os.path.exists(marker):
        with open(marker, "w") as handle:
            handle.write("x")
        os.kill(os.getpid(), signal.SIGKILL)
    return RunResult(experiment_id="T-CRASH", seed=seed,
                     config=dict(config), metrics={"survived": 1})


def steady_entrypoint(config, seed):
    """A well-behaved sibling shard."""
    return RunResult(experiment_id="T-CRASH", seed=seed,
                     config=dict(config), metrics={"steady": 1})


def pid_entrypoint(config, seed):
    """Reports the pid of the worker that ran it."""
    time.sleep(0.1)
    return RunResult(experiment_id="T-CRASH", seed=seed,
                     config=dict(config), metrics={"pid": os.getpid()})


def _vanishing_owner(conn):
    """Warm a pool, report its worker pids, then die without cleanup."""
    pool = WorkerPool(2)
    results = pool.run([_shard("pid_entrypoint", i) for i in range(2)])
    conn.send([r.metrics["pid"] for r in results])
    os.kill(os.getpid(), signal.SIGKILL)


def _exited(pid):
    """Gone, or a zombie nobody reaped yet (our orphans' reaper may not)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


def _shard(entrypoint, index, seed=0, config=None):
    return ShardSpec(
        index=index, experiment_id="T-CRASH",
        entrypoint=f"{__name__}:{entrypoint}", seed=seed,
        config=config or {},
    )


def _canonical(grid):
    return json.dumps(grid.to_dict(), indent=2, sort_keys=True)


class TestWorkerCrashContainment:
    def test_crashed_worker_is_respawned_and_shard_retried(self, tmp_path):
        crashes = []
        [result] = run_shards(
            [_shard("crash_once_entrypoint", 0,
                    config={"marker_dir": str(tmp_path)})],
            jobs=2, retries=1,
            on_crash=lambda spec, attempt: crashes.append(
                (spec.index, attempt)
            ),
        )
        assert result.ok
        assert result.metrics == {"survived": 1}
        assert crashes == [(0, 1)]
        # The respawn is infrastructure noise, not a shard verdict: it
        # must not leak into the recorded attempts.
        assert result.attempts == 1

    def test_double_crash_quarantines_without_burning_the_budget(self):
        [result] = run_shards(
            [_shard("suicidal_entrypoint", 0)], jobs=2, retries=5,
        )
        assert result.status == "crashed"
        assert result.attempts == 2  # quarantined at the second kill
        assert "died before reporting" in result.error
        assert f"killed by signal {int(signal.SIGKILL)}" in result.error

    def test_sibling_shards_survive_a_crashing_neighbour(self, tmp_path):
        results = run_shards(
            [
                _shard("crash_once_entrypoint", 0, seed=0,
                       config={"marker_dir": str(tmp_path)}),
                _shard("suicidal_entrypoint", 1, seed=1),
                _shard("steady_entrypoint", 2, seed=2),
            ],
            jobs=3, retries=3,
        )
        assert [r.status for r in results] == ["ok", "crashed", "ok"]
        assert results[2].metrics == {"steady": 1}

    def test_warm_pool_keeps_crash_accounting(self, tmp_path):
        # X16's crash-once / crash-always pair on workers that already
        # ran shards: the same quarantine-after-2 and ``attempts`` as on
        # fresh workers, and the pool stays usable afterwards.
        crashes = []
        with WorkerPool(2) as pool:
            pool.run([_shard("steady_entrypoint", i) for i in range(2)])
            results = pool.run(
                [
                    _shard("crash_once_entrypoint", 0, seed=0,
                           config={"marker_dir": str(tmp_path)}),
                    _shard("suicidal_entrypoint", 1, seed=1),
                    _shard("steady_entrypoint", 2, seed=2),
                ],
                retries=3,
                on_crash=lambda spec, attempt: crashes.append(spec.index),
            )
            [after] = pool.run([_shard("steady_entrypoint", 0)])
            assert len(pool.worker_pids()) <= 2
        assert [r.status for r in results] == ["ok", "crashed", "ok"]
        assert [r.attempts for r in results] == [1, 2, 1]
        assert sorted(crashes) == [0, 1, 1]
        assert after.ok

    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
    def test_idle_worker_death_is_not_charged_to_the_next_shard(self):
        crashes = []
        with WorkerPool(2) as pool:
            warm = pool.run([_shard("pid_entrypoint", i) for i in range(2)])
            victim = warm[0].metrics["pid"]
            os.kill(victim, signal.SIGKILL)
            while not _exited(victim):
                time.sleep(0.01)
            results = pool.run(
                [_shard("pid_entrypoint", i) for i in range(2)],
                on_crash=lambda spec, attempt: crashes.append(spec.index),
            )
        assert crashes == []
        assert [(r.status, r.attempts) for r in results] == [("ok", 1)] * 2
        assert victim not in {r.metrics["pid"] for r in results}

    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
    def test_workers_exit_when_their_owner_dies(self):
        # An idle worker blocks on its pipe; only EOF can end it when
        # the owner is SIGKILLed, so no other process may hold that
        # pipe's parent end -- a sibling worker or the worker itself.
        context = multiprocessing.get_context("fork")
        reader, writer = context.Pipe(duplex=False)
        owner = context.Process(target=_vanishing_owner, args=(writer,))
        owner.start()
        writer.close()
        pids = reader.recv()
        owner.join()
        assert owner.exitcode == -signal.SIGKILL
        assert len(set(pids)) == 2
        deadline = time.monotonic() + 10.0
        while not all(_exited(pid) for pid in pids):
            assert time.monotonic() < deadline, "orphaned workers linger"
            time.sleep(0.05)

    def test_inline_execution_has_no_crash_hook(self):
        # jobs=1 runs in-process: a hard crash there takes the caller
        # with it, so the hook must never fire.
        fired = []
        [result] = run_shards(
            [_shard("steady_entrypoint", 0)], jobs=1,
            on_crash=lambda spec, attempt: fired.append(spec.index),
        )
        assert result.ok
        assert fired == []


class TestCrashByteIdentity:
    def test_worker_kills_do_not_change_the_merged_document(self, tmp_path):
        # Every X16 probe shard kills its own worker once on the first
        # grid; markers make the second grid run undisturbed. Both must
        # merge to the byte-identical canonical document.
        probe = {
            "probe": True, "sleep_s": 0.0,
            "crash_marker_dir": str(tmp_path / "markers"),
        }
        chaos = run_grid("X16", seeds=2, overrides=[probe], jobs=2,
                         use_cache=False)
        calm = run_grid("X16", seeds=2, overrides=[probe], jobs=2,
                        use_cache=False)
        assert chaos.all_ok
        assert chaos.stats["worker_crashes"] == 2
        assert calm.stats["worker_crashes"] == 0
        assert _canonical(chaos) == _canonical(calm)

    def test_resume_replays_the_journal_to_identical_bytes(self, tmp_path):
        probe = {"probe": True, "sleep_s": 0.0}
        cache_dir = tmp_path / "cache"
        full = run_grid("X16", seeds=3, overrides=[probe], jobs=2,
                        cache_dir=str(cache_dir))
        assert full.all_ok

        # Simulate a parent SIGKILL after two shards: rewrite the
        # journal without the later records, and clear the cache so
        # the replayed results can only come from the journal.
        [journal_file] = (cache_dir / "journal").glob("*.jsonl")
        replay = read_journal(journal_file)
        done = replay.of_kind("shard-done")
        assert len(done) == 3
        kept_indexes = {r["index"] for r in done[:2]}
        keep = [
            r for r in replay.records
            if r["kind"] == "grid-start"
            or (r["kind"] == "shard-done" and r["index"] in kept_indexes)
        ]
        from repro.runner.journal import JournalWriter
        with JournalWriter(journal_file, mode="w") as journal:
            for record in keep:
                journal.append(**record)
        for entry in cache_dir.glob("*/*.json"):
            entry.unlink()

        resumed = run_grid("X16", seeds=3, overrides=[probe], jobs=2,
                           cache_dir=str(cache_dir), resume=True)
        assert resumed.stats["journal_replayed"] == 2
        assert resumed.stats["recomputed"] == 1
        assert _canonical(resumed) == _canonical(full)

    def test_resume_of_a_finished_grid_recomputes_nothing(self, tmp_path):
        probe = {"probe": True, "sleep_s": 0.0}
        cache_dir = tmp_path / "cache"
        first = run_grid("X16", seeds=2, overrides=[probe], jobs=2,
                         cache_dir=str(cache_dir))
        again = run_grid("X16", seeds=2, overrides=[probe], jobs=2,
                         cache_dir=str(cache_dir), resume=True)
        assert again.stats["journal_replayed"] == 2
        assert again.stats["recomputed"] == 0
        assert again.stats["pool_spawns"] == 0
        assert _canonical(again) == _canonical(first)

    def test_resume_requires_a_cache_dir(self):
        with pytest.raises(ConfigError, match="cache_dir"):
            run_grid("X16", seeds=1,
                     overrides=[{"probe": True}], resume=True)

    def test_journal_written_next_to_cache(self, tmp_path):
        cache_dir = tmp_path / "cache"
        run_grid("X16", seeds=1, overrides=[{"probe": True}],
                 cache_dir=str(cache_dir))
        journals = list((cache_dir / "journal").glob("*.jsonl"))
        assert len(journals) == 1
        kinds = [r["kind"] for r in read_journal(journals[0]).records]
        assert kinds[0] == "grid-start"
        assert kinds[-1] == "grid-done"
        assert journals[0] == journal_path(
            cache_dir, journals[0].stem
        )


class TestResumeCli:
    def test_resume_with_no_cache_is_rejected(self, capsys):
        from repro.__main__ import main
        code = main(["run", "X16", "--resume", "--no-cache"])
        assert code == 2
        assert "--resume" in capsys.readouterr().err
