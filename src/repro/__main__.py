"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``summary``      -- library inventory and experiment list.
- ``roadmap``      -- run the full roadmap pipeline, print the results.
- ``findings``     -- generate the survey corpus, print the Key Findings.
- ``experiments``  -- the experiment registry with paper anchors.
- ``run``          -- the parallel experiment runner: fan an
  (experiment x seed) grid over a process pool with result caching,
  write a merged ``results.json``. Every cached run keeps a write-ahead
  journal next to the cache; ``--resume`` replays it so a killed sweep
  continues from its last fsync'd record and still produces the
  byte-identical canonical document. Options: ``--jobs``, ``--seeds``,
  ``--cache-dir``, ``--no-cache``, ``--out-dir``, ``--timeout-s``,
  ``--retries``, ``--quick``, ``--resume``, ``--set KEY=VALUE``.
- ``trace``        -- run one experiment at its ``--quick`` size,
  instrumented; print the span / metrics report and write
  ``trace.jsonl``.
- ``serve``        -- start the experiment service: an asyncio HTTP +
  WebSocket server accepting job submissions, with admission control,
  request coalescing and the shared result cache. Accepted jobs are
  journaled next to the cache, so a restarted service re-admits work
  that was in flight when it died. Options: ``--host``, ``--port``,
  ``--jobs``, ``--cache-dir``, ``--no-cache``, ``--max-pending``,
  ``--max-active``, ``--per-client``.
- ``submit``       -- submit an experiment grid to a running service
  and write the returned ``results.json`` (byte-identical to a local
  ``run`` of the same grid). Transient connection failures retry with
  exponential backoff unless ``--no-retry``. Options: ``--server``,
  ``--seeds``, ``--set``, ``--quick``, ``--timeout-s``, ``--retries``,
  ``--out-dir``, ``--events-out``, ``--client-id``, ``--no-cache``,
  ``--no-retry``, ``--wait-s``.
- ``perf``         -- run the pinned perf microbenches (production
  kernel vs frozen pre-fast-path reference, plus the sharded engine vs
  the sequential one and the vectorized traffic scenarios vs the frozen
  scalar generator); write ``BENCH_engine.json``, ``BENCH_models.json``,
  ``BENCH_network.json``, ``BENCH_sharded.json`` and
  ``BENCH_traffic.json``, and append a summary line to
  ``benchmarks/BENCH_history.jsonl``. Positional suite ids (``engine``,
  ``models``, ``network``, ``sharded``, ``traffic``) restrict the run;
  ``--list`` prints every suite/bench with its committed-baseline path
  and pinned floors; an unknown id is an error printing that same
  listing, like ``trace``.

The commands share argument conventions: experiments and suites resolve
through a registry (so misspelled ids list the valid set), artifacts
land in ``--out-dir`` (default: the working directory) and randomness
is controlled by ``--seed`` / ``--seeds``. Every subcommand ends with a
one-line schema-versioned JSON summary on success (the last stdout
line), so scripts can consume CLI outcomes without scraping tables.
The deprecated ``trace --out`` alias (announced for removal) is gone;
use ``--out-dir``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def _emit_summary(command: str, **fields) -> None:
    """Print the one-line schema-versioned JSON summary (last line)."""
    from repro.service.schema import SCHEMA_VERSION

    payload = {"schema_version": SCHEMA_VERSION, "command": command}
    payload.update(fields)
    print(json.dumps(payload, sort_keys=True), flush=True)


def _cmd_summary() -> int:
    import repro
    from repro.reporting import EXPERIMENTS

    print(f"rethinkbig reproduction library v{repro.__version__}")
    print("paper: RETHINK big (DATE 2017) -- European roadmap for hardware")
    print("       and networking optimizations for Big Data")
    packages = (
        "engine", "econ", "network", "node", "cluster", "frameworks",
        "scheduler", "analytics", "workloads", "survey", "core",
        "ecosystem", "mc", "reporting", "runner", "service",
    )
    print(f"subpackages ({len(packages)}): {', '.join(packages)}")
    print(f"experiments: {len(EXPERIMENTS)} "
          f"({', '.join(e.experiment_id for e in EXPERIMENTS)})")
    runnable = [e.experiment_id for e in EXPERIMENTS if e.runnable]
    print(f"runnable via `python -m repro run` ({len(runnable)}): "
          f"{', '.join(runnable)}")
    _emit_summary(
        "summary",
        version=repro.__version__,
        experiments=len(EXPERIMENTS),
        runnable=len(runnable),
    )
    return 0


def _cmd_roadmap() -> int:
    from repro.core import build_roadmap
    from repro.reporting import render_table

    roadmap = build_roadmap()
    print(f"key findings hold: {roadmap.findings_hold}")
    rows = [
        [s.recommendation.rec_id, s.recommendation.title[:58], s.priority]
        for s in roadmap.scored_recommendations
    ]
    print(render_table(["R", "recommendation", "priority"], rows,
                       title="recommendations, priority-ranked"))
    print(f"funded under {roadmap.portfolio.budget_meur:.0f} MEUR: "
          f"R{roadmap.portfolio.rec_ids}")
    _emit_summary(
        "roadmap",
        findings_hold=roadmap.findings_hold,
        recommendations=len(roadmap.scored_recommendations),
        funded=list(roadmap.portfolio.rec_ids),
    )
    return 0


def _cmd_findings() -> int:
    from repro.survey import generate_corpus, headline_counts, key_findings

    corpus = generate_corpus()
    counts = headline_counts(corpus)
    print(f"{counts['n_interviews']} interviews, "
          f"{counts['n_companies']} companies")
    findings = key_findings(corpus)
    for finding in findings:
        status = "HOLDS" if finding.holds else "FAILS"
        print(f"  [{status}] Finding {finding.finding_id}: "
              f"{finding.statement}")
    _emit_summary(
        "findings",
        n_interviews=counts["n_interviews"],
        n_companies=counts["n_companies"],
        holding=sum(1 for f in findings if f.holds),
        total=len(findings),
    )
    return 0


def _cmd_experiments() -> int:
    from repro.reporting import EXPERIMENTS, render_table

    rows = [
        [e.experiment_id, e.paper_anchor, e.claim[:52],
         "yes" if e.runnable else ""]
        for e in EXPERIMENTS
    ]
    print(render_table(["id", "anchor", "claim", "runnable"], rows))
    _emit_summary(
        "experiments",
        total=len(EXPERIMENTS),
        runnable=sum(1 for e in EXPERIMENTS if e.runnable),
    )
    return 0


def _parse_set_overrides(pairs) -> dict:
    """``KEY=VALUE`` config overrides; values parse as JSON, else str."""
    config = {}
    for pair in pairs or ():
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise SystemExit(f"--set expects KEY=VALUE, got {pair!r}")
        try:
            config[key] = json.loads(raw)
        except ValueError:
            config[key] = raw
    return config


def _cmd_run(args) -> int:
    from repro.engine.observability import Registry
    from repro.errors import ReproError
    from repro.reporting import render_table
    from repro.runner import run_grid

    if args.resume and args.no_cache:
        print("error: --resume needs the cache/journal directory; "
              "it cannot be combined with --no-cache", file=sys.stderr)
        return 2
    try:
        config = _parse_set_overrides(args.set)
        registry = Registry()
        grid = run_grid(
            experiments=args.experiments,
            seeds=args.seeds,
            overrides=[config] if config else None,
            jobs=args.jobs,
            cache_dir=None if args.no_cache else args.cache_dir,
            use_cache=not args.no_cache,
            timeout_s=args.timeout_s,
            retries=args.retries,
            registry=registry,
            progress=lambda line: print(f"  {line}", flush=True),
            quick=args.quick,
            resume=args.resume,
        )
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    rows = [
        [r.experiment_id, r.seed, r.status, r.attempts,
         "cache" if r.cached else f"{r.wall_s:.2f}s", len(r.metrics)]
        for r in grid.results
    ]
    print(render_table(
        ["experiment", "seed", "status", "attempts", "ran in", "metrics"],
        rows, title="experiment grid results",
    ))
    stats = grid.stats
    print(f"{len(grid)} runs: {grid.n_ok} ok, {stats['errors']} errors, "
          f"{stats['timeouts']} timeouts, {stats['crashed']} crashed | "
          f"cache hits: {stats['cache_hits']}, "
          f"journal replayed: {stats['journal_replayed']}, "
          f"recomputed: {stats['recomputed']}, retries: {stats['retries']}")

    out_path = grid.write_json(Path(args.out_dir) / "results.json")
    print(f"wrote {out_path}")
    for failure in grid.failures:
        print(f"\nFAILED {failure.experiment_id} seed {failure.seed} "
              f"({failure.status}):\n{failure.error}", file=sys.stderr)
    _emit_summary(
        "run", ok=grid.all_ok, n_runs=len(grid), n_ok=grid.n_ok,
        out=str(out_path), **stats,
    )
    return 0 if grid.all_ok else 1


def _cmd_trace(args) -> int:
    from repro.errors import RegistryError
    from repro.reporting import render_trace_report, run_trace
    from repro.runner import runnable_experiments

    if args.experiment is None:
        print("traceable experiments: "
              f"{', '.join(runnable_experiments())}")
        print("usage: python -m repro trace <experiment> "
              "[--out-dir DIR] [--seed N]")
        return 2
    try:
        report = run_trace(args.experiment, seed=args.seed)
    except RegistryError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(render_trace_report(report))
    out_path = Path(args.out_dir) / "trace.jsonl"
    if out_path.parent != Path("."):
        out_path.parent.mkdir(parents=True, exist_ok=True)
    lines = report.write_jsonl(str(out_path))
    print(f"\nwrote {lines} lines to {out_path}")
    if not report.result.ok:
        print(f"error: {report.result.error}", file=sys.stderr)
        return 1
    _emit_summary(
        "trace", experiment=report.experiment_id, seed=args.seed,
        lines=lines, out=str(out_path),
    )
    return 0


def _cmd_serve(args) -> int:
    import asyncio

    from repro.errors import ReproError
    from repro.service.server import ExperimentService

    try:
        service = ExperimentService(
            host=args.host,
            port=args.port,
            jobs=args.jobs,
            cache_dir=None if args.no_cache else args.cache_dir,
            use_cache=not args.no_cache,
            max_pending=args.max_pending,
            max_active=args.max_active,
            per_client=args.per_client,
        )
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    async def body() -> None:
        host, port = await service.start()
        from repro.service.schema import SCHEMA_VERSION

        print(json.dumps({
            "schema_version": SCHEMA_VERSION,
            "command": "serve",
            "event": "ready",
            "host": host,
            "port": port,
            "url": f"http://{host}:{port}",
        }, sort_keys=True), flush=True)
        await service.serve_until_stopped()

    try:
        asyncio.run(body())
    except KeyboardInterrupt:
        pass
    snapshot = service.registry.snapshot()
    counters = {
        name: int(value)
        for name, value in snapshot["counters"].items()
        if name.startswith("service.")
    }
    _emit_summary(
        "serve", host=service.host, port=service.port,
        jobs_seen=len(service.job_table), **counters,
    )
    return 0


def _cmd_submit(args) -> int:
    from repro.client import ServiceClient
    from repro.errors import ServiceError
    from repro.service.schema import decode_job

    config = _parse_set_overrides(args.set)
    client = ServiceClient(
        args.server, timeout_s=30.0, client_id=args.client_id,
        **({"retry_policy": None} if args.no_retry else {}),
    )
    try:
        envelope = decode_job(client.submit(
            args.experiments,
            seeds=args.seeds,
            overrides=[config] if config else None,
            quick=args.quick,
            timeout_s=args.timeout_s,
            retries=args.retries,
            use_cache=not args.no_cache,
        ))
        job_id = envelope["job_id"]
        print(f"job {job_id} {envelope['state']} at {client.base_url}")
        if args.events_out is not None:
            from repro.core.atomicio import atomic_open

            events_path = Path(args.events_out)
            # Atomic: the JSONL only appears once the stream completed,
            # so a crash mid-stream never leaves a truncated log.
            with atomic_open(events_path) as handle:
                for event in client.stream_events(
                    job_id, timeout_s=args.wait_s
                ):
                    handle.write(json.dumps(event, sort_keys=True) + "\n")
                    if event.get("type") == "heartbeat":
                        print(f"  {event.get('message', '')}", flush=True)
            print(f"wrote event stream to {events_path}")
        result = client.result(job_id, timeout_s=args.wait_s)
        grid = result.grid()
    except ServiceError as error:
        print(f"error [{error.code}]: {error}", file=sys.stderr)
        return 2

    out_path = grid.write_json(Path(args.out_dir) / "results.json")
    print(f"wrote {out_path}")
    _emit_summary(
        "submit", ok=result.ok, job_id=result.job_id,
        n_runs=len(grid), n_ok=grid.n_ok, out=str(out_path),
        **result.stats,
    )
    return 0 if result.ok else 1


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro`` argument parser (subcommand per command)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="rethinkbig reproduction library CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (
        ("summary", "library inventory and experiment list"),
        ("roadmap", "run the full roadmap pipeline"),
        ("findings", "survey corpus Key Findings"),
        ("experiments", "the experiment registry"),
    ):
        sub.add_parser(name, help=help_text)

    run_parser = sub.add_parser(
        "run", help="run experiments in parallel with result caching"
    )
    run_parser.add_argument(
        "experiments", nargs="+", metavar="ID",
        help="experiment ids (e.g. E2 E6) or 'all'",
    )
    run_parser.add_argument("--jobs", type=int, default=1,
                            help="worker processes (default: 1, inline)")
    run_parser.add_argument("--seeds", type=int, default=1,
                            help="seeds per experiment: 0..K-1 (default: 1)")
    run_parser.add_argument("--cache-dir", default=".repro-cache",
                            help="result cache directory "
                                 "(default: .repro-cache)")
    run_parser.add_argument("--no-cache", action="store_true",
                            help="recompute everything, store nothing")
    run_parser.add_argument("--out-dir", default=".",
                            help="where to write results.json (default: .)")
    run_parser.add_argument("--timeout-s", type=float, default=600.0,
                            help="per-run wall-clock timeout (default: 600)")
    run_parser.add_argument("--retries", type=int, default=1,
                            help="re-attempts per failed run (default: 1)")
    run_parser.add_argument("--quick", action="store_true",
                            help="reduced problem sizes (smoke runs)")
    run_parser.add_argument("--resume", action="store_true",
                            help="replay this grid's write-ahead journal "
                                 "and run only the unfinished shards")
    run_parser.add_argument("--set", action="append", metavar="KEY=VALUE",
                            help="config override applied to every "
                                 "experiment (repeatable)")

    trace_parser = sub.add_parser(
        "trace", help="run one experiment instrumented"
    )
    trace_parser.add_argument("experiment", nargs="?",
                              help="experiment id (e.g. E2)")
    trace_parser.add_argument("--out-dir", default=".",
                              help="where to write trace.jsonl (default: .)")
    trace_parser.add_argument("--seed", type=int, default=0,
                              help="grid seed (as for run --quick)")

    serve_parser = sub.add_parser(
        "serve", help="start the experiment service (HTTP + WebSocket)"
    )
    serve_parser.add_argument("--host", default="127.0.0.1",
                              help="bind address (default: 127.0.0.1)")
    serve_parser.add_argument("--port", type=int, default=0,
                              help="bind port (default: 0, ephemeral; the "
                                   "ready line prints the bound port)")
    serve_parser.add_argument("--jobs", type=int, default=1,
                              help="worker-pool width per grid (default: 1)")
    serve_parser.add_argument("--cache-dir", default=".repro-cache",
                              help="result cache directory "
                                   "(default: .repro-cache)")
    serve_parser.add_argument("--no-cache", action="store_true",
                              help="recompute everything, store nothing")
    serve_parser.add_argument("--max-pending", type=int, default=16,
                              help="admission queue bound (default: 16)")
    serve_parser.add_argument("--max-active", type=int, default=1,
                              help="concurrent grids (default: 1)")
    serve_parser.add_argument("--per-client", type=int, default=4,
                              help="per-client in-flight cap (default: 4)")

    submit_parser = sub.add_parser(
        "submit", help="submit an experiment grid to a running service"
    )
    submit_parser.add_argument(
        "experiments", nargs="+", metavar="ID",
        help="experiment ids (e.g. E2 E6) or 'all'",
    )
    submit_parser.add_argument("--server", default="http://127.0.0.1:8035",
                               help="service URL (default: "
                                    "http://127.0.0.1:8035)")
    submit_parser.add_argument("--seeds", type=int, default=1,
                               help="seeds per experiment: 0..K-1 "
                                    "(default: 1)")
    submit_parser.add_argument("--set", action="append", metavar="KEY=VALUE",
                               help="config override applied to every "
                                    "experiment (repeatable)")
    submit_parser.add_argument("--quick", action="store_true",
                               help="reduced problem sizes (smoke runs)")
    submit_parser.add_argument("--timeout-s", type=float, default=600.0,
                               help="per-run wall-clock timeout "
                                    "(default: 600)")
    submit_parser.add_argument("--retries", type=int, default=1,
                               help="re-attempts per failed run (default: 1)")
    submit_parser.add_argument("--out-dir", default=".",
                               help="where to write results.json "
                                    "(default: .)")
    submit_parser.add_argument("--events-out", default=None, metavar="PATH",
                               help="stream the job's events (heartbeats, "
                                    "spans) to this JSONL file")
    submit_parser.add_argument("--client-id", default="cli",
                               help="client identity for per-client "
                                    "admission caps (default: cli)")
    submit_parser.add_argument("--no-cache", action="store_true",
                               help="force recompute on the server")
    submit_parser.add_argument("--no-retry", action="store_true",
                               help="fail fast on connection errors "
                                    "instead of retrying with backoff")
    submit_parser.add_argument("--wait-s", type=float, default=600.0,
                               help="how long to wait for the job "
                                    "(default: 600)")
    return parser


def main(argv=None) -> int:
    """CLI entry point."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "perf":
        # The perf suite owns its own options; hand the rest through.
        from repro.perf import main as perf_main

        return perf_main(argv[1:])
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "submit":
        return _cmd_submit(args)
    handlers = {
        "summary": _cmd_summary,
        "roadmap": _cmd_roadmap,
        "findings": _cmd_findings,
        "experiments": _cmd_experiments,
    }
    return handlers[args.command]()


if __name__ == "__main__":
    sys.exit(main())
