"""The ``service_jobs`` workload: a closed loop against ``repro serve``.

One client drives a real ``repro serve --jobs 2`` subprocess through
``repro.client.ServiceClient``. Each iteration submits one fresh grid
(X12 + X15, ``--quick``, on a seed pair the run has not used: pool
fork, IPC, journal fsync, cache put, result JSON) and then resubmits
``CACHED_PER_FRESH`` earlier grids (HTTP parsing, job table, cache
gets, result JSON). Job completion is detected on the job's WebSocket
event stream, so no latency is rounded to a poll interval. Every job
document must be byte-identical to the in-process ``run_grid`` output
recorded for the same grid.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import time
from typing import Any, Dict, List, Tuple

from bench_common import (
    ROOT,
    SETUP_REPEATS,
    BenchError,
    Tracer,
    child_env,
    end_to_end,
    input_order,
    load_expected,
    measure,
    median,
    note,
    tail,
    workdir,
)
from speed import SpeedProbe, scale

NAME = "service_jobs"
EXPERIMENTS = ("X12", "X15")
CACHED_PER_FRESH = 3
POOL_WIDTH = 2


def document_digest(document: Dict[str, Any]) -> str:
    """SHA-256 of the document exactly as ``results.json`` stores it."""
    text = json.dumps(document, indent=2, sort_keys=True) + "\n"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def reference_digest(seeds: Tuple[int, int]) -> str:
    """The in-process ``run_grid`` document digest for one grid."""
    from repro import run_grid

    grid = run_grid(list(EXPERIMENTS), seeds=list(seeds), quick=True,
                    jobs=POOL_WIDTH, use_cache=False)
    return document_digest(grid.to_dict())


class Server:
    """One ``repro serve`` subprocess on a fresh cache directory."""

    def __init__(self, index: int) -> None:
        base = workdir(f"service-{index}")
        self.cache_dir = os.path.join(base, "cache")
        self.log = open(os.path.join(base, "serve.log"), "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--jobs", str(POOL_WIDTH), "--cache-dir", self.cache_dir],
            stdout=subprocess.PIPE, stderr=self.log, env=child_env(),
            cwd=ROOT,
        )
        self.client = None

    def ready(self):
        from repro.client import ServiceClient

        line = self.proc.stdout.readline()
        try:
            url = json.loads(line)["url"]
        except (ValueError, KeyError):
            raise BenchError(f"repro serve did not start: {line!r}")
        self.client = ServiceClient(url, timeout_s=60.0, client_id="bench")
        self.client.wait_until_ready(timeout_s=60.0)
        return self.client

    def stop(self) -> None:
        from repro.errors import ServiceError

        try:
            if self.client is not None and self.proc.poll() is None:
                self.client.shutdown()
            self.proc.communicate(timeout=60)
        except (ServiceError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.communicate()
        finally:
            self.log.close()


def run_job(client, seeds: Tuple[int, int], digest: str) -> Dict[str, Any]:
    """Submit one grid, follow its events to the end, fetch the result."""
    from repro.errors import ServiceError

    record: Dict[str, Any] = {"ok": False, "shards": 2 * len(EXPERIMENTS)}
    t0 = time.perf_counter()
    try:
        envelope = client.submit(list(EXPERIMENTS), seeds=list(seeds),
                                 quick=True)
        t_submit = time.perf_counter()
        execute = None
        for event in client.stream_events(envelope["job_id"], timeout_s=120):
            if event.get("type") == "span" and event.get("name") == "execute":
                execute = event
        t_stream = time.perf_counter()
        final = client.job(envelope["job_id"])
        t_done = time.perf_counter()
    except ServiceError as exc:
        note(f"{NAME}: transport error on grid {seeds}: {exc}")
        return record
    result = final.get("result") or {}
    record.update({
        "latency_s": t_done - t0,
        "submit_rtt_s": t_submit - t0,
        "fetch_s": t_done - t_stream,
        "result_bytes": len(json.dumps(final, sort_keys=True)),
        "stats": result.get("stats", {}),
        "ok": (final.get("state") == "done"
               and result.get("status") == "ok"
               and document_digest(result.get("document", {})) == digest),
    })
    if execute is not None:
        record["queue_wait_s"] = execute["start_s"]
        record["execute_s"] = execute["end_s"] - execute["start_s"]
    return record


def start_server(index: int, warmup: Tuple[int, int, str],
                 probe: SpeedProbe):
    """Start a server and run the throwaway job.

    Returns the server and the set-up time in nominal seconds.
    """
    t0 = time.perf_counter()
    server = Server(index)
    try:
        client = server.ready()
        job = run_job(client, warmup[:2], warmup[2])
    except BaseException:
        server.stop()
        raise
    elapsed = probe.scaled(t0, time.perf_counter())
    if not job["ok"]:
        server.stop()
        raise BenchError("warm-up job failed")
    return server, elapsed


def _histogram_sum(client) -> Tuple[float, int]:
    histogram = client.metrics()["metrics"]["histograms"].get(
        "runner.run_wall_s", {})
    return histogram.get("sum", 0.0), histogram.get("count", 0)


def run(seed: int, seconds: float, trace: bool, probe: SpeedProbe):
    """One benchmark run; returns ``(correct, attempted, failed, metrics)``.

    Times are scaled to nominal speed with ``probe`` (speed.py), which
    samples the client's core; per-job latencies use the mean speed of
    the phase they ran in.
    """
    expected = load_expected(NAME)
    warmup = tuple(expected["warmup"])
    grids = {(a, b): digest for a, b, digest in expected["grids"]}
    setup: List[float] = []
    server = None
    for index in range(SETUP_REPEATS):
        if server is not None:
            server.stop()
        server, elapsed = start_server(index, warmup, probe)
        setup.append(elapsed)
    client = server.client
    tracer = Tracer(False)
    picker = random.Random(f"{NAME}:{seed}:cached")
    done: List[Tuple[int, int]] = [warmup[:2]]
    digests = dict(grids)
    digests[warmup[:2]] = warmup[2]

    def iteration(grid: Tuple[int, int]) -> Dict[str, Any]:
        if tracer.enabled:
            before = _histogram_sum(client)
        with tracer.span("fresh_job", seeds=list(grid)):
            fresh = run_job(client, grid, digests[grid])
        if tracer.enabled:
            after = _histogram_sum(client)
            fresh["compute_sum_s"] = after[0] - before[0]
            fresh["compute_n"] = after[1] - before[1]
        cached = []
        for _ in range(CACHED_PER_FRESH):
            again = picker.choice(done)
            with tracer.span("cached_job", seeds=list(again)):
                cached.append(run_job(client, again, digests[again]))
        done.append(grid)
        jobs = [fresh] + cached
        return {"fresh": fresh, "cached": cached, "ops": len(jobs),
                "failed": sum(1 for job in jobs if not job["ok"])}

    inputs = input_order(NAME, seed, sorted(grids))
    try:
        if not trace:
            since, until, records = measure(seconds, inputs, iteration)
        else:
            since, middle, untraced = measure(seconds / 2, inputs, iteration)
            tracer.enabled = True
            traced_since, until, traced = measure(
                seconds / 2, inputs[len(untraced):], iteration)
            records = untraced + traced
            counters = client.metrics()["metrics"]["counters"]
    finally:
        server.stop()
    if trace:
        tracer.export(os.path.join(workdir(f"trace-{NAME}"), "spans.jsonl"))

    mean_ref, _ = probe.window(since, until)
    nominal = scale(1.0, mean_ref)
    fresh = [r["fresh"] for r in records]
    cached = [job for r in records for job in r["cached"]]
    attempted = sum(r["ops"] for r in records)
    failed = sum(r["failed"] for r in records)
    fresh_lat = [j["latency_s"] * nominal for j in fresh if "latency_s" in j]
    cached_lat = [j["latency_s"] * nominal for j in cached
                  if "latency_s" in j]
    f_tail, f_pct, f_n = tail(fresh_lat)
    c_tail, c_pct, c_n = tail(cached_lat)
    note(f"{NAME}: {len(records)} iterations, {attempted} jobs, {failed} "
         f"failed; raw phase {until - since:.3f}s, reference "
         f"{mean_ref * 1e3:.3f}ms; nominal: fresh p50 "
         f"{median(fresh_lat):.4f}s tail p{f_pct:.1f} {f_tail:.4f}s "
         f"(n={f_n}); cached p50 {median(cached_lat):.4f}s tail "
         f"p{c_pct:.1f} {c_tail:.4f}s (n={c_n}); setup samples "
         f"{['%.3f' % s for s in setup]}")

    if not trace:
        return (failed == 0, attempted, failed,
                end_to_end(setup, probe.scaled(since, until), records))

    measured = [j for j in (r["fresh"] for r in traced) if "compute_n" in j]
    shards_fresh = sum(j["shards"] for j in fresh)
    shards_cached = sum(j["shards"] for j in cached)
    traced_phase = probe.scaled(traced_since, until)
    untraced_phase = probe.scaled(since, middle)
    wall = traced_phase / len(traced)
    untraced_wall = untraced_phase / len(untraced)
    layers = {
        "service.submit_rtt_s": nominal * median(
            [j["submit_rtt_s"] for j in cached if "submit_rtt_s" in j]),
        "service.result_fetch_s": nominal * median(
            [j["fetch_s"] for j in cached if "fetch_s" in j]),
        "service.result_bytes": median([j["result_bytes"] for j in cached
                                        if "result_bytes" in j]),
        "service.queue_wait_s": nominal * median(
            [j["queue_wait_s"] for j in fresh if "queue_wait_s" in j]),
        "service.execute_s": nominal * median(
            [j["execute_s"] for j in fresh if "execute_s" in j]),
        "runner.run_wall_s": nominal * median(
            [j["compute_sum_s"] / j["compute_n"]
             for j in measured if j["compute_n"]]),
        "runner.overhead_s": nominal * median([
            j["execute_s"] - j["compute_sum_s"] / POOL_WIDTH
            for j in measured if "execute_s" in j
        ]),
        "runner.pool_spawns_per_fresh_shard": sum(
            j.get("stats", {}).get("pool_spawns", 0) for j in fresh
        ) / shards_fresh,
        "runner.cache_hits_per_cached_shard": sum(
            j.get("stats", {}).get("cache_hits", 0) for j in cached
        ) / shards_cached,
        "service.coalesced": float(counters.get("service.coalesced", 0)),
        "service.shed": float(counters.get("service.shed", 0)),
        "service.fresh_job_p50_s": median(fresh_lat),
        "service.fresh_job_tail_s": f_tail,
        "service.fresh_job_tail_pct": f_pct,
        "service.fresh_job_samples": float(f_n),
        "service.cached_job_p50_s": median(cached_lat),
        "service.cached_job_tail_s": c_tail,
        "service.cached_job_tail_pct": c_pct,
        "service.cached_job_samples": float(c_n),
        "service.jobs_per_s": attempted / (untraced_phase + traced_phase),
        "trace.wall_s": wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": wall - untraced_wall,
        "speed.ref_ms": mean_ref * 1e3,
        "speed.raw_wall_s": median([r["wall_s"] for r in records]),
        "error_rate": failed / attempted,
    }
    return failed == 0, attempted, failed, layers


def record_expected(n_grids: int) -> Dict[str, Any]:
    """Reference digests: the warm-up grid plus ``n_grids`` fresh grids."""
    pairs = [(10_000 + 2 * i, 10_001 + 2 * i) for i in range(n_grids)]
    warmup = (9_000, 9_001)
    return {
        "warmup": [*warmup, reference_digest(warmup)],
        "grids": [[a, b, reference_digest((a, b))] for a, b in pairs],
    }
