"""The runnable-experiment API: one ``SubmitRequest -> JobResult`` path.

:func:`execute_job` is the single execution core behind every way of
running experiments: the library calls (:func:`run_experiment`,
:func:`run_grid`), the ``python -m repro run`` CLI, and the experiment
service (:mod:`repro.service`) all build a typed
:class:`~repro.service.schema.SubmitRequest` and hand it here. The core
sweeps the ``(experiment x seed x config-override)`` grid through the
worker pool (:class:`~repro.runner.pool.WorkerPool`) with the on-disk
result cache in front: shards whose content-hash key (config + code
fingerprint) is already cached are served without recompute,
everything else fans out over ``jobs`` workers with per-run timeouts
and bounded retries. Progress heartbeats are published through a
:class:`~repro.engine.observability.Registry`; each shard attempt
handed to the pool increments the ``runner.pool_spawns`` counter --
shards handed over, not processes forked (pool workers are reused) --
which is how the service proves a repeat submission was served
entirely from cache.

When a ``cache_dir`` is configured the core also keeps a write-ahead
job journal (:mod:`repro.runner.journal`) next to the cache: grid
identity, every shard handoff, and every terminal shard result are
fsync'd to disk *before* execution moves on, so a run killed at any
instant -- parent or worker -- can be resumed with
``execute_job(..., resume=True)`` / ``run_grid(resume=True)`` /
``repro run --resume``. Resume replays journaled shard results (the
only durable record of *failed* shards, which the cache never stores)
plus cache hits, runs only the remainder, and merges to a
``results.json`` byte-identical to an uninterrupted run at any
``jobs`` count.

:func:`run_experiment` executes one registered experiment inline and
returns its :class:`~repro.runner.results.RunResult`; :func:`run_grid`
returns the merged :class:`~repro.runner.results.GridResult`.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Union

from repro.engine.observability import Registry
from repro.errors import ConfigError, RegistryError
from repro.reporting.experiments import EXPERIMENTS, Experiment
from repro.runner.cache import ResultCache, cache_key
from repro.runner.journal import (
    JOURNAL_SCHEMA,
    JournalWriter,
    journal_path,
    replay_grid,
)
from repro.runner.pool import ShardSpec, WorkerPool, run_shards
from repro.runner.results import GridResult, RunResult

#: Default per-shard wall-clock budget for pooled sweeps.
DEFAULT_TIMEOUT_S = 600.0

#: Process-wide origin for gauge sample times: gauges require
#: time-ordered samples, and a registry may outlive one job (the
#: service shares one registry across every job it runs).
_GAUGE_EPOCH = time.monotonic()


def runnable_experiments() -> List[str]:
    """Ids of experiments with a registered entrypoint, registry order."""
    return [e.experiment_id for e in EXPERIMENTS if e.runnable]


def resolve_experiments(tokens: Union[str, Iterable[str]]) -> List[Experiment]:
    """Resolve user-supplied experiment tokens to registry entries.

    Accepts a single token or an iterable; ``"all"`` expands to every
    runnable experiment. Ids are case-insensitive and de-duplicated
    while preserving registry order. Unknown or non-runnable ids raise
    a :class:`~repro.errors.RegistryError` listing the runnable set.
    """
    if isinstance(tokens, str):
        tokens = [tokens]
    tokens = [token.strip() for token in tokens if token.strip()]
    if not tokens:
        raise RegistryError(
            f"no experiments requested; runnable: {runnable_experiments()}"
        )
    by_id = {e.experiment_id.upper(): e for e in EXPERIMENTS}
    wanted: List[Experiment] = []
    for token in tokens:
        if token.lower() == "all":
            wanted.extend(e for e in EXPERIMENTS if e.runnable)
            continue
        experiment = by_id.get(token.upper())
        if experiment is None:
            raise RegistryError(
                f"unknown experiment: {token!r}; "
                f"runnable: {runnable_experiments()}"
            )
        if not experiment.runnable:
            raise RegistryError(
                f"experiment {experiment.experiment_id!r} has no entrypoint; "
                f"runnable: {runnable_experiments()}"
            )
        wanted.append(experiment)
    seen = set()
    ordered = []
    for experiment in wanted:
        if experiment.experiment_id not in seen:
            seen.add(experiment.experiment_id)
            ordered.append(experiment)
    return ordered


def _as_seeds(seeds: Union[int, Iterable[int]]) -> List[int]:
    """``3`` -> ``[0, 1, 2]``; an iterable passes through validated."""
    if isinstance(seeds, int):
        if seeds < 1:
            raise ConfigError(f"need at least one seed, got {seeds}")
        return list(range(seeds))
    out = [int(s) for s in seeds]
    if not out:
        raise ConfigError("need at least one seed")
    return out


def build_shards(
    experiments: Sequence[Experiment],
    seeds: List[int],
    overrides: Sequence[Dict[str, Any]],
    base_configs: Optional[Dict[str, Dict[str, Any]]] = None,
) -> List[ShardSpec]:
    """The deterministic grid order: experiment, then override, then seed.

    ``base_configs`` optionally supplies a per-experiment config layered
    *under* each override (used for ``--quick`` problem sizes).
    """
    shards: List[ShardSpec] = []
    for experiment in experiments:
        base = dict((base_configs or {}).get(experiment.experiment_id, {}))
        for override in overrides:
            config = {**base, **override}
            for seed in seeds:
                shards.append(ShardSpec(
                    index=len(shards),
                    experiment_id=experiment.experiment_id,
                    entrypoint=experiment.entrypoint,
                    seed=seed,
                    config=config,
                ))
    return shards


def execute_job(
    request: "Any",
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    registry: Optional[Registry] = None,
    progress: Optional[Callable[[str], None]] = None,
    resume: bool = False,
    pool: Optional[WorkerPool] = None,
) -> "Any":
    """Execute one :class:`~repro.service.schema.SubmitRequest` to its
    :class:`~repro.service.schema.JobResult`.

    This is the single execution path shared by the library API, the
    CLI and the experiment service. ``jobs`` and ``cache_dir`` are
    *environment*, not job identity: they change how fast a grid runs
    and where shard results persist, never what the canonical results
    document contains. ``registry`` receives heartbeat metrics
    (``runner.*`` counters, an in-flight gauge, a per-run wall-time
    histogram, and the ``runner.pool_spawns`` counter of shard attempts
    handed to the pool -- not of processes forked); ``progress``
    receives human-readable one-liners. ``pool`` runs the fresh shards
    on a caller-owned, already-warm :class:`~repro.runner.pool.WorkerPool`
    (its size replaces ``jobs``); without it a pool of ``jobs``
    workers lives for this call only (none when ``jobs == 1``: inline).

    With ``cache_dir`` set (and the request not opting out of the cache
    via ``use_cache=False`` -- "store nothing" covers the journal too),
    a write-ahead journal of the grid is kept at
    :func:`~repro.runner.journal.journal_path`; ``resume=True`` replays
    it (validating it belongs to this exact grid) so shards already
    journaled as done are never re-executed. ``resume`` requires the
    cache -- the journal lives next to it.
    """
    from repro.runner.entrypoints import QUICK_CONFIGS
    from repro.service.schema import JobResult

    spec = request.job.canonical()
    resolved = resolve_experiments(list(spec.experiments))
    seed_list = list(spec.seeds)
    override_list = [dict(o) for o in spec.overrides]
    registry = registry if registry is not None else Registry()
    cache = (
        ResultCache(cache_dir, registry=registry)
        if cache_dir is not None and request.use_cache else None
    )
    if resume and cache is None:
        raise ConfigError(
            "resume=True requires a cache_dir (with use_cache enabled): "
            "the job journal is kept next to the result cache"
        )

    shards = build_shards(
        resolved, seed_list, override_list,
        base_configs=QUICK_CONFIGS if spec.quick else None,
    )
    total = len(shards)
    by_experiment = {e.experiment_id: e for e in resolved}
    job_id = spec.job_id()

    results: Dict[int, RunResult] = {}
    journal: Optional[JournalWriter] = None
    if cache is not None:
        target = journal_path(cache_dir, job_id)
        if resume:
            results.update(replay_grid(target, job_id, total))
            registry.counter("runner.journal_replays").inc(len(results))
        journal = JournalWriter(target, mode="a" if resume else "w")
        journal.append(
            "grid-start", schema=JOURNAL_SCHEMA, job_id=job_id,
            total=total, spec=spec.to_dict(),
        )
    replayed = len(results)
    if progress is not None and replayed:
        progress(f"journal: {replayed}/{total} shards replayed")

    keys: Dict[int, str] = {}
    to_run: List[ShardSpec] = []
    for shard in shards:
        if cache is not None:
            key = cache_key(
                by_experiment[shard.experiment_id], shard.seed, shard.config
            )
            keys[shard.index] = key
            if shard.index in results:
                continue
            cached = cache.get(key)
            if cached is not None:
                results[shard.index] = cached
                registry.counter("runner.cache_hits").inc()
                continue
        elif shard.index in results:
            continue
        to_run.append(shard)

    done_count = len(results)
    if progress is not None and done_count > replayed:
        progress(
            f"cache: {done_count - replayed}/{total} shards replayed"
        )

    in_flight = 0
    gauge = registry.gauge("runner.in_flight")
    gauge.set(time.monotonic() - _GAUGE_EPOCH, 0)
    # Stats report per-job deltas: the registry may be shared across
    # jobs (the service keeps one for its whole lifetime).
    spawns_before = registry.counter("runner.pool_spawns").value
    retries_before = registry.counter("runner.retries").value
    crashes_before = registry.counter("runner.worker_crashes").value

    def on_start(spec_: ShardSpec, attempt: int) -> None:
        nonlocal in_flight
        registry.counter("runner.pool_spawns").inc()
        if journal is not None:
            journal.append(
                "shard-start", index=spec_.index,
                experiment=spec_.experiment_id, seed=spec_.seed,
                attempt=attempt,
            )
        if attempt > 1:
            registry.counter("runner.retries").inc()
            if progress is not None:
                progress(
                    f"retry {spec_.experiment_id} seed {spec_.seed} "
                    f"(attempt {attempt})"
                )
        in_flight += 1
        gauge.set(time.monotonic() - _GAUGE_EPOCH, in_flight)

    def on_complete(spec_: ShardSpec, result: RunResult) -> None:
        nonlocal in_flight, done_count
        in_flight -= 1
        done_count += 1
        gauge.set(time.monotonic() - _GAUGE_EPOCH, in_flight)
        registry.counter("runner.completed").inc()
        if result.status == "error":
            registry.counter("runner.errors").inc()
        elif result.status == "timeout":
            registry.counter("runner.timeouts").inc()
        elif result.status == "crashed":
            registry.counter("runner.quarantined").inc()
        registry.histogram("runner.run_wall_s").observe(result.wall_s)
        if cache is not None:
            # Stored as each shard lands, not when the grid ends, so a
            # grid killed mid-run keeps its finished shards.
            cache.put(keys[spec_.index], result)
        if journal is not None:
            journal.append(
                "shard-done", index=spec_.index, result=result.to_dict()
            )
        if progress is not None:
            progress(
                f"[{done_count}/{total}] {spec_.experiment_id} "
                f"seed {spec_.seed}: {result.status} "
                f"({result.wall_s:.2f}s, attempt {result.attempts})"
            )

    def on_crash(spec_: ShardSpec, attempt: int) -> None:
        registry.counter("runner.worker_crashes").inc()
        if progress is not None:
            progress(
                f"worker crash: {spec_.experiment_id} seed {spec_.seed} "
                f"(attempt {attempt}); respawning"
            )

    if pool is not None:
        fresh = pool.run(
            to_run, spec.timeout_s, spec.retries,
            on_complete, on_start, on_crash,
        )
    else:
        fresh = run_shards(
            to_run,
            jobs=jobs,
            timeout_s=spec.timeout_s,
            retries=spec.retries,
            on_complete=on_complete,
            on_start=on_start,
            on_crash=on_crash,
        )
    # Results come back in grid order, matching to_run's ascending indexes.
    for shard, result in zip(sorted(to_run, key=lambda s: s.index), fresh):
        results[shard.index] = result

    merged = [results[index] for index in sorted(results)]
    grid = GridResult(results=merged, stats={
        "scheduled": total,
        "recomputed": len(fresh),
        "cache_hits": cache.hits if cache is not None else 0,
        "journal_replayed": replayed,
        "pool_spawns": int(
            registry.counter("runner.pool_spawns").value - spawns_before
        ),
        "errors": sum(1 for r in merged if r.status == "error"),
        "timeouts": sum(1 for r in merged if r.status == "timeout"),
        "crashed": sum(1 for r in merged if r.status == "crashed"),
        "worker_crashes": int(
            registry.counter("runner.worker_crashes").value - crashes_before
        ),
        "retries": int(
            registry.counter("runner.retries").value - retries_before
        ),
    })
    if journal is not None:
        journal.append("grid-done", job_id=job_id, n_ok=grid.n_ok)
        journal.close()
    job_result = JobResult(
        job_id=job_id,
        status="ok" if grid.all_ok else "failed",
        document=grid.to_dict(),
        stats=dict(grid.stats),
    )
    # Runtime-only: the live GridResult, so library wrappers don't pay
    # a serialize/deserialize round trip.
    job_result.grid_live = grid
    return job_result


def _build_request(
    experiments: Union[str, Iterable[str]],
    seeds: Union[int, Iterable[int]],
    overrides: Optional[Sequence[Dict[str, Any]]],
    quick: bool,
    timeout_s: Optional[float],
    retries: int,
    use_cache: bool,
    client_id: str,
) -> "Any":
    """Assemble the typed request the execution core consumes."""
    from repro.service.schema import JobSpec, SubmitRequest

    resolved = resolve_experiments(experiments)
    spec = JobSpec(
        experiments=tuple(e.experiment_id for e in resolved),
        seeds=tuple(_as_seeds(seeds)),
        overrides=tuple(dict(o) for o in overrides) if overrides else ({},),
        quick=quick,
        timeout_s=timeout_s,
        retries=retries,
    )
    return SubmitRequest(job=spec, client_id=client_id, use_cache=use_cache)


def run_experiment(
    experiment_id: str,
    seed: int = 0,
    config: Optional[Dict[str, Any]] = None,
) -> RunResult:
    """Run one experiment inline and return its result.

    A single-shard job through the shared ``SubmitRequest -> JobResult``
    path: executes in the calling process with no cache, no timeout and
    no retries. Failures are captured in the result record
    (``result.status``/``result.error``), never raised.
    """
    request = _build_request(
        experiment_id, [seed], [dict(config)] if config else None,
        quick=False, timeout_s=None, retries=0,
        use_cache=False, client_id="library",
    )
    job = execute_job(request, jobs=1)
    return job.grid_live.results[0]


def run_grid(
    experiments: Union[str, Iterable[str]] = "all",
    seeds: Union[int, Iterable[int]] = 1,
    overrides: Optional[Sequence[Dict[str, Any]]] = None,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    use_cache: bool = True,
    timeout_s: Optional[float] = DEFAULT_TIMEOUT_S,
    retries: int = 1,
    registry: Optional[Registry] = None,
    progress: Optional[Callable[[str], None]] = None,
    quick: bool = False,
    resume: bool = False,
) -> GridResult:
    """Sweep experiments x seeds x config-overrides; return merged results.

    ``seeds`` is a count (``K`` -> seeds ``0..K-1``) or an explicit
    list. ``overrides`` is a sequence of config dicts, each crossed
    with every experiment and seed (default: one empty override).
    With ``cache_dir`` set and ``use_cache`` true, shards whose key is
    cached are replayed without recompute and fresh ``ok`` results are
    stored back. ``quick`` layers each experiment's reduced smoke-test
    problem size (:data:`~repro.runner.entrypoints.QUICK_CONFIGS`)
    under the overrides.

    ``resume=True`` (requires ``cache_dir``) replays this grid's
    write-ahead journal before consulting the cache, so a sweep killed
    mid-run -- parent or worker -- continues from its last fsync'd
    record and merges to the same canonical document an uninterrupted
    run produces.

    A thin wrapper over :func:`execute_job` -- the same typed-request
    path the service and CLI use -- returning the live
    :class:`~repro.runner.results.GridResult`.
    """
    request = _build_request(
        experiments, seeds, overrides,
        quick=quick, timeout_s=timeout_s, retries=retries,
        use_cache=use_cache, client_id="library",
    )
    job = execute_job(
        request, jobs=jobs, cache_dir=cache_dir,
        registry=registry, progress=progress, resume=resume,
    )
    return job.grid_live
