"""End-to-end benchmark of the repro stack, split by layer.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload fabric_transport --seed 1 \
        --seconds 25 --trace 0

Workloads: ``fabric_transport`` (X14's transport workload on the
sequential ``simulate_fabric``), ``chaos_load`` (the registered X17
chaos x load matrix) and ``service_jobs`` (a closed loop of fresh and
cached grids against a real ``repro serve``). ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` runs a separate traced pass and
prints the per-layer metrics. The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. See README.md.
"""

from __future__ import annotations

import argparse
import math
import sys

from bench_common import BenchError, emit, use_checkout_source
from speed import SpeedProbe

WORKLOADS = ("fabric_transport", "chaos_load", "service_jobs")

#: Every per-layer metric and its unit; a traced run reports all of them
#: and a layer the workload does not exercise reads 0.
PER_LAYER = {
    "engine.sim.calendar_self_s": "s",
    "engine.sim.calendar_share": "ratio",
    "engine.sim.process_self_s": "s",
    "engine.sim.loop_self_s": "s",
    "engine.sim.events": "count",
    "engine.sim.events_per_request": "ratio",
    "workloads.fabricsim.self_s": "s",
    "engine.sharded.sync.trace_digest_s": "s",
    "network.topology.build_s": "s",
    "network.topology.self_s": "s",
    "engine.faults.self_s": "s",
    "engine.resources.self_s": "s",
    "engine.resilience.self_s": "s",
    "mc.traffic.self_s": "s",
    "network.routing.self_s": "s",
    "workloads.scenario.self_s": "s",
    "repro.other_self_s": "s",
    "unattributed_self_s": "s",
    "profile.accounted_share": "ratio",
    "profile.dilation": "ratio",
    "resilience.copies_per_request": "ratio",
    "memory.attempts_per_read": "ratio",
    "service.submit_rtt_s": "s",
    "service.result_fetch_s": "s",
    "service.result_bytes": "bytes",
    "service.queue_wait_s": "s",
    "service.execute_s": "s",
    "runner.run_wall_s": "s",
    "runner.overhead_s": "s",
    "runner.pool_spawns_per_fresh_shard": "ratio",
    "runner.cache_hits_per_cached_shard": "ratio",
    "service.coalesced": "count",
    "service.shed": "count",
    "service.fresh_job_p50_s": "s",
    "service.fresh_job_tail_s": "s",
    "service.fresh_job_tail_pct": "%",
    "service.fresh_job_samples": "count",
    "service.cached_job_p50_s": "s",
    "service.cached_job_tail_s": "s",
    "service.cached_job_tail_pct": "%",
    "service.cached_job_samples": "count",
    "service.jobs_per_s": "1/s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "speed.ref_ms": "ms",
    "speed.raw_wall_s": "s",
    "error_rate": "ratio",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    probe = SpeedProbe().start()
    try:
        use_checkout_source()
        if args.workload == "service_jobs":
            import wl_service

            outcome = wl_service.run(args.seed, args.seconds,
                                     bool(args.trace), probe)
        else:
            import wl_des

            if args.setup_probe:
                wl_des.setup_probe(args.workload)
                mean, spent = probe.window(0.0, math.inf)
                print(f"ready {mean!r} {spent!r}", flush=True)
                return 0
            outcome = wl_des.run(args.workload, args.seed, args.seconds,
                                 bool(args.trace), probe)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        probe.stop()
    correct, attempted, failed, values = outcome
    if args.trace:
        metrics = {name: (values.get(name, 0.0), unit)
                   for name, unit in PER_LAYER.items()}
    else:
        metrics = values
    emit(correct, attempted, failed, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
