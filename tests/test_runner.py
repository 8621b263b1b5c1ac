"""Tests for the parallel experiment runner (``repro.runner``).

Covers the PR's acceptance guarantees: grid determinism across worker
counts, cache hit/invalidation behaviour, the timeout and retry paths,
entrypoint conformance (traced, digest-pinned) for every runnable
experiment, and the ``python -m repro run`` CLI.

The synthetic entrypoints below live at module scope so forked pool
workers can resolve them by dotted path (the fork context inherits this
module through ``sys.modules``).
"""

import hashlib
import json
import multiprocessing
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.engine.observability import Registry
from repro.errors import ConfigError, ModelError, RegistryError
from repro.reporting import get_experiment, run_trace
from repro.runner import (
    QUICK_CONFIGS,
    GridResult,
    ResultCache,
    RunResult,
    ShardSpec,
    WorkerPool,
    cache_key,
    resolve_entrypoint,
    resolve_experiments,
    run_experiment,
    run_grid,
    run_shards,
    runnable_experiments,
)

# ---------------------------------------------------------------------------
# synthetic entrypoints (resolved by dotted path in forked workers)


def ok_entrypoint(config, seed):
    """Deterministic toy entrypoint: metrics derived from seed+config."""
    return RunResult(
        experiment_id="T-OK",
        seed=seed,
        config=dict(config),
        metrics={"value": seed * 10 + config.get("bump", 0)},
    )


def failing_entrypoint(config, seed):
    """Always raises, to exercise the error-capture path."""
    raise ValueError("synthetic failure for the retry test")


def model_error_entrypoint(config, seed):
    """Raises a library error, which every rerun would raise again."""
    raise ModelError("out-of-domain parameter for the retry-rule test")


def sleepy_entrypoint(config, seed):
    """Sleeps past any reasonable timeout, to exercise termination."""
    time.sleep(float(config.get("sleep_s", 30.0)))
    return RunResult(experiment_id="T-SLEEPY", seed=seed, config=dict(config))


def flaky_entrypoint(config, seed):
    """Fails on the first attempt (marker file absent), then succeeds."""
    marker = Path(config["marker"])
    if not marker.exists():
        marker.write_text("attempted", encoding="utf-8")
        raise RuntimeError("first attempt fails by design")
    return RunResult(
        experiment_id="T-FLAKY",
        seed=seed,
        config=dict(config),
        metrics={"recovered": True},
    )


def pid_entrypoint(config, seed):
    """Reports the pid of the process that ran it, after ``sleep_s``."""
    time.sleep(float(config.get("sleep_s", 0.0)))
    return RunResult(
        experiment_id="T-PID",
        seed=seed,
        config=dict(config),
        metrics={"pid": os.getpid()},
    )


def _counted_cache(tmp_path):
    """A cache whose quarantines land on its own ``Registry``."""
    return ResultCache(tmp_path / "cache", registry=Registry())


def _corrupt(cache):
    """The cache's ``runner.cache_corrupt`` count."""
    return cache.registry.counter("runner.cache_corrupt").value


def _shard(entrypoint_name, experiment_id, index=0, seed=0, config=None):
    return ShardSpec(
        index=index,
        experiment_id=experiment_id,
        entrypoint=f"{__name__}:{entrypoint_name}",
        seed=seed,
        config=dict(config or {}),
    )


# ---------------------------------------------------------------------------
# experiment resolution


class TestResolveExperiments:
    def test_all_expands_to_runnable_set(self):
        resolved = resolve_experiments("all")
        assert [e.experiment_id for e in resolved] == runnable_experiments()

    def test_case_insensitive_and_deduplicated(self):
        resolved = resolve_experiments(["e2", "E2", "e4"])
        assert [e.experiment_id for e in resolved] == ["E2", "E4"]

    def test_unknown_id_lists_runnable_set(self):
        with pytest.raises(RegistryError, match="E1"):
            resolve_experiments("E999")

    def test_non_runnable_id_rejected(self):
        with pytest.raises(RegistryError, match="no entrypoint"):
            resolve_experiments("T1")

    def test_every_e_series_experiment_is_runnable(self):
        runnable = set(runnable_experiments())
        expected = {f"E{i}" for i in range(1, 17)}
        assert expected <= runnable


class TestEntrypointConformance:
    DIGESTS = json.loads(
        (Path(__file__).parent / "golden" / "registered_outputs.json")
        .read_text()
    )

    @pytest.mark.parametrize("experiment_id", runnable_experiments())
    def test_entrypoint_resolves_and_returns_ok_runresult(
        self, experiment_id
    ):
        # Traced at the quick size, the record must be the untraced
        # ``run --quick`` record: tracing observes, it does not change.
        experiment = get_experiment(experiment_id)
        fn = resolve_entrypoint(experiment.entrypoint)
        assert callable(fn)
        result = run_trace(experiment_id, seed=0).result
        assert isinstance(result, RunResult)
        assert result.ok, result.error
        assert result.experiment_id == experiment_id
        assert result.metrics, f"{experiment_id} returned no metrics"
        digest = hashlib.sha256(result.canonical_json().encode()).hexdigest()
        assert digest == self.DIGESTS[experiment_id]["0"]

    def test_bad_entrypoint_paths_rejected(self):
        with pytest.raises(RegistryError, match="module:function"):
            resolve_entrypoint("no-colon-here")
        with pytest.raises(RegistryError, match="has no"):
            resolve_entrypoint("repro.runner.entrypoints:not_a_function")


# ---------------------------------------------------------------------------
# determinism


class TestDeterminism:
    GRID = ("E4", "E9")

    def _results_json(self, tmp_path, name, jobs):
        grid = run_grid(
            self.GRID, seeds=2, jobs=jobs, cache_dir=None, use_cache=False
        )
        assert grid.all_ok, [r.error for r in grid.failures]
        return grid.write_json(tmp_path / name / "results.json").read_bytes()

    def test_results_json_identical_across_worker_counts(self, tmp_path):
        serial = self._results_json(tmp_path, "j1", jobs=1)
        pooled = self._results_json(tmp_path, "j4", jobs=4)
        assert serial == pooled

    def test_pool_workers_may_start_their_own_workers(self, tmp_path):
        # X14's quick config runs its sharded engine with shards=2, which
        # forks shard workers from inside the pool worker.
        def results_json(name, jobs):
            grid = run_grid("X14", seeds=2, jobs=jobs, use_cache=False,
                            quick=True)
            assert grid.all_ok, [r.error for r in grid.failures]
            return grid.write_json(
                tmp_path / name / "results.json"
            ).read_bytes()

        assert results_json("j2", 2) == results_json("j1", 1)

    def test_results_ordered_by_grid_not_completion(self):
        grid = run_grid(self.GRID, seeds=2, jobs=4, use_cache=False)
        order = [(r.experiment_id, r.seed) for r in grid.results]
        assert order == [
            ("E4", 0), ("E4", 1), ("E9", 0), ("E9", 1)
        ]

    def test_same_seed_reproduces_metrics(self):
        first = run_experiment("E4", seed=3)
        second = run_experiment("E4", seed=3)
        assert first.metrics == second.metrics

    def test_run_result_round_trips_through_dict(self):
        result = run_experiment("E4", seed=1)
        assert RunResult.from_dict(result.to_dict()) == result


# ---------------------------------------------------------------------------
# caching


class TestCache:
    def test_second_sweep_is_fully_cached(self, tmp_path):
        cache_dir = tmp_path / "cache"
        first = run_grid(["E4"], seeds=2, cache_dir=cache_dir)
        assert first.stats["recomputed"] == 2
        assert first.stats["cache_hits"] == 0
        second = run_grid(["E4"], seeds=2, cache_dir=cache_dir)
        assert second.stats["recomputed"] == 0
        assert second.stats["cache_hits"] == 2
        assert all(r.cached for r in second.results)
        assert ([r.to_dict() for r in first.results]
                == [r.to_dict() for r in second.results])

    def test_config_change_invalidates_exactly_that_shard(self, tmp_path):
        cache_dir = tmp_path / "cache"
        run_grid(["E4"], seeds=1, cache_dir=cache_dir)
        changed = run_grid(
            ["E4"], seeds=1, overrides=[{"speedup": 5.0}],
            cache_dir=cache_dir,
        )
        assert changed.stats["recomputed"] == 1
        replay = run_grid(["E4"], seeds=1, cache_dir=cache_dir)
        assert replay.stats["cache_hits"] == 1

    def test_cache_key_varies_with_seed_and_config(self):
        experiment = get_experiment("E4")
        base = cache_key(experiment, 0, {})
        assert cache_key(experiment, 1, {}) != base
        assert cache_key(experiment, 0, {"speedup": 5.0}) != base
        assert cache_key(experiment, 0, {}) == base

    def test_failed_results_never_cached(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        bad = RunResult(
            experiment_id="E4", seed=0, status="error", error="boom"
        )
        cache.put("a" * 64, bad)
        assert len(cache) == 0
        assert cache.get("a" * 64) is None

    def test_corrupt_entry_reads_as_miss_and_quarantines(self, tmp_path):
        from repro.engine import Registry

        registry = Registry()
        cache = ResultCache(tmp_path / "cache", registry=registry)
        key = "b" * 64
        cache.put(key, RunResult(experiment_id="E4", seed=0))
        assert cache.get(key) is not None
        path = cache.root / key[:2] / f"{key}.json"
        path.write_text("{not json", encoding="utf-8")
        assert cache.get(key) is None
        # The bad entry was moved aside, not left to fail every read.
        assert not path.exists()
        assert path.with_suffix(".corrupt").exists()
        assert registry.counter("runner.cache_corrupt").value == 1
        # Quarantined entries no longer count as cached.
        assert len(cache) == 0

    def test_deeply_nested_entry_quarantines(self, tmp_path):
        cache = _counted_cache(tmp_path)
        key = "d" * 64
        cache.put(key, RunResult(experiment_id="E4", seed=0))
        path = cache.root / key[:2] / f"{key}.json"
        path.write_text("[" * 5000 + "]" * 5000, encoding="utf-8")
        assert cache.get(key) is None
        assert path.with_suffix(".corrupt").exists()
        assert _corrupt(cache) == 1

    def test_schema_mismatch_quarantines(self, tmp_path):
        cache = _counted_cache(tmp_path)
        key = "c" * 64
        cache.put(key, RunResult(experiment_id="E4", seed=0))
        path = cache.root / key[:2] / f"{key}.json"
        path.write_text('{"schema": "other/v9"}', encoding="utf-8")
        assert cache.get(key) is None
        assert path.with_suffix(".corrupt").exists()
        assert _corrupt(cache) == 1

    def test_no_cache_flag_stores_nothing(self, tmp_path):
        cache_dir = tmp_path / "cache"
        run_grid(["E4"], seeds=1, cache_dir=cache_dir, use_cache=False)
        assert not cache_dir.exists()

    def test_concurrent_quarantine_race_tolerated(self, tmp_path):
        # Two readers hit the same corrupt entry; whoever loses the
        # rename race must treat "already quarantined" as success --
        # not raise, not double-count.
        from repro.engine import Registry

        registry = Registry()
        reader_a = ResultCache(tmp_path / "cache", registry=registry)
        reader_b = ResultCache(tmp_path / "cache", registry=registry)
        key = "d" * 64
        reader_a.put(key, RunResult(experiment_id="E4", seed=0))
        path = reader_a.root / key[:2] / f"{key}.json"
        path.write_text("{torn", encoding="utf-8")
        assert reader_a.get(key) is None      # wins the rename
        # Reader B read the same corrupt bytes before A renamed; its
        # quarantine now loses the race and must be a silent success.
        reader_b._quarantine(path)
        assert reader_b.get(key) is None
        assert registry.counter("runner.cache_corrupt").value == 1
        assert path.with_suffix(".corrupt").exists()

    def test_quarantine_of_already_missing_entry_is_a_noop(self, tmp_path):
        cache = _counted_cache(tmp_path)
        missing = cache.root / "ee" / f"{'e' * 64}.json"
        cache._quarantine(missing)
        assert _corrupt(cache) == 0

    def test_concurrent_writers_of_one_key_cannot_collide(self, tmp_path):
        # put() goes through atomic_write_text with (pid, serial)-unique
        # scratch names: parallel writers of the same key must all
        # succeed and leave one complete, readable entry.
        import threading

        cache = ResultCache(tmp_path / "cache")
        key = "f" * 64
        result = RunResult(experiment_id="E4", seed=0, metrics={"m": 1})
        errors = []

        def writer():
            try:
                for _ in range(20):
                    cache.put(key, result)
            except Exception as exc:  # noqa: BLE001 - the assertion
                errors.append(exc)

        threads = [threading.Thread(target=writer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        entry = cache.get(key)
        assert entry is not None
        assert entry.metrics == {"m": 1}


# ---------------------------------------------------------------------------
# failure handling: errors, timeouts, retries


class TestFailurePaths:
    def test_error_captured_with_traceback(self):
        [result] = run_shards([_shard("failing_entrypoint", "T-ERR")],
                              jobs=1, retries=0)
        assert result.status == "error"
        assert result.attempts == 1
        assert "synthetic failure" in result.error
        assert "Traceback" in result.error

    def test_error_retried_up_to_bound(self):
        [result] = run_shards([_shard("failing_entrypoint", "T-ERR")],
                              jobs=2, retries=2)
        assert result.status == "error"
        assert result.attempts == 3

    def test_timeout_terminates_and_records(self):
        [result] = run_shards(
            [_shard("sleepy_entrypoint", "T-SLEEPY")],
            jobs=2, timeout_s=0.3, retries=0,
        )
        assert result.status == "timeout"
        assert result.attempts == 1
        assert "timeout" in result.error

    def test_flaky_shard_recovers_on_retry(self, tmp_path):
        marker = tmp_path / "marker"
        [result] = run_shards(
            [_shard("flaky_entrypoint", "T-FLAKY",
                    config={"marker": str(marker)})],
            jobs=2, retries=1,
        )
        assert result.ok, result.error
        assert result.attempts == 2
        assert result.metrics == {"recovered": True}

    def test_mismatched_experiment_id_is_an_error(self):
        [result] = run_shards([_shard("ok_entrypoint", "T-WRONG")],
                              jobs=1, retries=0)
        assert result.status == "error"
        assert "T-OK" in result.error

    def test_misspelled_override_fails_the_shard(self):
        result = run_experiment("E4", config={"speeedup": 9.0}, seed=0)
        assert result.status == "error"
        assert "ConfigError: unknown config key(s): speeedup;" in result.error
        assert "valid keys: " in result.error and " speedup" in result.error
        spelled = run_experiment("E4", config={"speedup": 9.0}, seed=0)
        assert spelled.ok, spelled.error
        assert spelled.config["speedup"] == 9.0

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_unknown_config_key_is_not_retried(self, jobs):
        grid = run_grid("E4", overrides=[{"speeedup": 9.0}], quick=True,
                        use_cache=False, retries=1, jobs=jobs)
        [result] = grid.results
        assert result.status == "error"
        assert "ConfigError: unknown config key(s)" in result.error
        assert result.attempts == 1
        assert grid.stats["retries"] == 0
        # Any other error keeps its retry budget.
        [other] = run_shards([_shard("failing_entrypoint", "T-ERR")],
                             jobs=jobs, retries=1)
        assert other.status == "error" and other.attempts == 2

    @pytest.mark.parametrize("experiment,override", [
        ("X14", {"inline": "False"}),
        ("X14", {"with_faults": "False"}),
        ("X14", {"shards": 1.5}),
        ("X14", {"shards": True}),
        ("X16", {"probe": "true"}),
        ("X16", {"probe": 1}),
    ])
    def test_mistyped_flag_or_shard_count_fails_once(self, experiment,
                                                      override):
        # "False" is a truthy string and 1.5 shards is no shard count:
        # running anyway would record a config that was not applied.
        grid = run_grid(experiment, overrides=[override], quick=True,
                        use_cache=False, retries=1, jobs=1)
        [result] = grid.results
        assert result.status == "error"
        assert "ConfigError: " in result.error
        assert next(iter(override)) in result.error
        assert result.attempts == 1

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_library_error_runs_once(self, jobs):
        [result] = run_shards([_shard("model_error_entrypoint", "T-MODEL")],
                              jobs=jobs, retries=2)
        assert result.status == "error"
        assert "repro.errors.ModelError: out-of-domain" in result.error
        assert result.attempts == 1
        assert not result.retryable

    def test_invalid_pool_arguments_rejected(self):
        with pytest.raises(ConfigError):
            run_shards([], jobs=0)
        with pytest.raises(ConfigError):
            run_shards([], retries=-1)
        with pytest.raises(ConfigError):
            run_shards([], jobs=2, timeout_s=0.0)

    def test_pooled_failures_do_not_block_other_shards(self):
        shards = [
            _shard("failing_entrypoint", "T-ERR", index=0),
            _shard("ok_entrypoint", "T-OK", index=1, seed=4),
        ]
        results = run_shards(shards, jobs=2, retries=0)
        assert results[0].status == "error"
        assert results[1].ok and results[1].metrics["value"] == 40


# ---------------------------------------------------------------------------
# reusable worker pool


def _canonical(results):
    return json.dumps([r.to_dict() for r in results], sort_keys=True)


def _exited(pid):
    """Gone, or a zombie nobody reaped yet (an orphan's reaper may not)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


needs_proc = pytest.mark.skipif(
    not os.path.isdir("/proc"), reason="needs /proc"
)


class TestWorkerPool:
    def test_reused_pool_matches_inline_on_shuffled_repeats(self):
        pairs = [("E4", 0), ("E9", 1), ("X12", 0), ("X12", 1), ("E4", 1)]
        with WorkerPool(2) as pool:
            pids = None
            for order_seed in (1, 2):
                # Every pair twice, in a different order per pass: warm
                # workers see experiments and seeds they already ran.
                grid = pairs * 2
                random.Random(order_seed).shuffle(grid)
                shards = [
                    ShardSpec(
                        index=index,
                        experiment_id=experiment,
                        entrypoint=get_experiment(experiment).entrypoint,
                        seed=seed,
                        config=dict(QUICK_CONFIGS.get(experiment, {})),
                    )
                    for index, (experiment, seed) in enumerate(grid)
                ]
                pooled = pool.run(shards, retries=0)
                assert all(r.ok for r in pooled), [r.error for r in pooled]
                inline = run_shards(shards, jobs=1, retries=0)
                assert _canonical(pooled) == _canonical(inline)
                if pids is None:
                    pids = set(pool.worker_pids())
                assert set(pool.worker_pids()) == pids  # reused, not forked
            assert len(pids) == 2 and os.getpid() not in pids

    @needs_proc
    def test_timeout_replaces_only_the_stuck_worker(self):
        with WorkerPool(2) as pool:
            warm = pool.run([
                _shard("pid_entrypoint", "T-PID", index=i,
                       config={"sleep_s": 0.2})
                for i in range(2)
            ])
            warm_pids = {r.metrics["pid"] for r in warm}
            assert len(warm_pids) == 2
            # One worker is stuck on the sleeper; the other keeps
            # draining 0.25 s shards, and after the 1 s timeout a
            # replacement takes its share of the rest.
            shards = [_shard("sleepy_entrypoint", "T-SLEEPY", index=0)] + [
                _shard("pid_entrypoint", "T-PID", index=i,
                       config={"sleep_s": 0.25})
                for i in range(1, 9)
            ]
            results = pool.run(shards, timeout_s=1.0, retries=0)
            assert results[0].status == "timeout"
            assert results[0].attempts == 1
            assert all(r.ok for r in results[1:])
            used = {r.metrics["pid"] for r in results[1:]}
            survivor = used & warm_pids
            replacement = used - warm_pids
            assert len(survivor) == 1 and len(replacement) == 1
            [stuck] = warm_pids - survivor
            assert _exited(stuck)
            assert set(pool.worker_pids()) == survivor | replacement

    def test_no_children_after_return(self):
        results = run_shards(
            [_shard("pid_entrypoint", "T-PID", index=i) for i in range(3)],
            jobs=2,
        )
        assert all(r.ok for r in results)
        assert multiprocessing.active_children() == []

    def test_no_children_after_a_hook_raises(self):
        def explode(spec, result):
            raise RuntimeError("progress hook failure")

        shards = [
            _shard("pid_entrypoint", "T-PID", index=0),
            _shard("pid_entrypoint", "T-PID", index=1,
                   config={"sleep_s": 30.0}),
        ]
        with pytest.raises(RuntimeError, match="progress hook"):
            run_shards(shards, jobs=2, on_complete=explode)
        assert multiprocessing.active_children() == []

    def test_no_children_after_interrupt(self):
        def interrupt(spec, attempt):
            if spec.index == 2:
                raise KeyboardInterrupt

        shards = [
            _shard("pid_entrypoint", "T-PID", index=i,
                   config={"sleep_s": 0.1 if i == 0 else 30.0})
            for i in range(3)
        ]
        with pytest.raises(KeyboardInterrupt):
            run_shards(shards, jobs=2, on_start=interrupt)
        assert multiprocessing.active_children() == []

    @needs_proc
    def test_unclosed_pool_does_not_block_interpreter_exit(self):
        # Idle workers wait on their pipes; an owner that never closes
        # its pool must still exit, taking them with it.
        code = (
            "from repro.runner import ShardSpec, WorkerPool\n"
            "pool = WorkerPool(2)\n"
            "[r] = pool.run([ShardSpec(index=0, experiment_id='X16', "
            "entrypoint='repro.runner.entrypoints:run_x16', seed=0, "
            "config={'probe': True})])\n"
            "assert r.ok, r.error\n"
            "print(*pool.worker_pids())\n"
        )
        import repro

        env = dict(os.environ,
                   PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert all(_exited(int(pid)) for pid in done.stdout.split())

    def test_closed_pool_refuses_runs(self):
        pool = WorkerPool(2)
        pool.run([_shard("ok_entrypoint", "T-OK")])
        pool.close()
        assert pool.worker_pids() == []
        with pytest.raises(RuntimeError, match="closed"):
            pool.run([_shard("ok_entrypoint", "T-OK")])
        with pytest.raises(ConfigError):
            WorkerPool(0)


# ---------------------------------------------------------------------------
# heartbeats


class TestHeartbeats:
    def test_registry_receives_runner_metrics(self, tmp_path):
        registry = Registry()
        grid = run_grid(
            ["E4"], seeds=2, cache_dir=tmp_path / "cache",
            registry=registry,
        )
        assert grid.all_ok
        assert registry.counter("runner.completed").value == 2
        assert registry.histogram("runner.run_wall_s").count == 2
        gauge = registry.gauge("runner.in_flight")
        assert gauge.n_samples >= 3
        assert gauge.last_value == 0

    def test_cache_hits_counted(self, tmp_path):
        cache_dir = tmp_path / "cache"
        run_grid(["E4"], seeds=1, cache_dir=cache_dir)
        registry = Registry()
        run_grid(["E4"], seeds=1, cache_dir=cache_dir, registry=registry)
        assert registry.counter("runner.cache_hits").value == 1


# ---------------------------------------------------------------------------
# grid results


class TestGridResult:
    def test_write_json_is_canonical(self, tmp_path):
        grid = GridResult(results=[RunResult(experiment_id="E4", seed=0)])
        path = grid.write_json(tmp_path / "results.json")
        document = json.loads(path.read_text())
        assert document["schema"] == "repro.runner/results/v1"
        assert document["n_runs"] == 1
        assert document["results"][0]["experiment"] == "E4"

# ---------------------------------------------------------------------------
# CLI


class TestRunCli:
    def test_run_writes_results_json(self, tmp_path, capsys):
        from repro.__main__ import main

        rc = main([
            "run", "E4",
            "--out-dir", str(tmp_path / "out"),
            "--cache-dir", str(tmp_path / "cache"),
        ])
        assert rc == 0
        document = json.loads(
            (tmp_path / "out" / "results.json").read_text()
        )
        assert document["experiments"] == ["E4"]
        printed = capsys.readouterr().out
        assert "experiment grid results" in printed
        assert "wrote" in printed

    def test_second_invocation_hits_cache(self, tmp_path, capsys):
        from repro.__main__ import main

        argv = [
            "run", "E4", "--seeds", "2",
            "--out-dir", str(tmp_path / "out"),
            "--cache-dir", str(tmp_path / "cache"),
        ]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 0
        printed = capsys.readouterr().out
        assert "cache hits: 2" in printed
        assert "recomputed: 0" in printed

    def test_unknown_experiment_exits_2_with_hint(self, tmp_path, capsys):
        from repro.__main__ import main

        rc = main(["run", "E999", "--out-dir", str(tmp_path)])
        assert rc == 2
        assert "runnable" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, message", [
        (["--jobs", "0"], "jobs must be >= 1"),
        (["--retries", "-1"], "'retries' must be an integer >= 0"),
    ], ids=["jobs-0", "retries-negative"])
    def test_out_of_domain_flag_exits_2(self, tmp_path, capsys, flag,
                                        message):
        from repro.__main__ import main

        rc = main(["run", "E4", "--quick", "--no-cache",
                   "--out-dir", str(tmp_path)] + flag)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err
        assert not (tmp_path / "results.json").exists()

    def test_set_overrides_reach_the_entrypoint(self, tmp_path):
        from repro.__main__ import main

        rc = main([
            "run", "E4", "--no-cache",
            "--out-dir", str(tmp_path),
            "--set", "speedup=6.0",
        ])
        assert rc == 0
        document = json.loads((tmp_path / "results.json").read_text())
        assert document["results"][0]["config"]["speedup"] == 6.0

    def test_trace_rejects_non_traceable_with_hint(self, capsys):
        from repro.__main__ import main

        assert main(["trace", "T1"]) == 2
        assert "error" in capsys.readouterr().err
