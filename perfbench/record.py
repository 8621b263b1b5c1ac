"""Record the reference outputs the benchmark checks every run against.

Usage (from the root of a checkout)::

    python3 perfbench/record.py

Writes ``perfbench/expected.json``: ``trace_sha256`` per fabric seed,
the X17 metrics digest per chaos seed, and the in-process ``run_grid``
document digest per service grid. Re-record only when a change is
meant to alter these outputs, and say so in that change.
"""

from __future__ import annotations

import json
import sys

from bench_common import EXPECTED_PATH, use_checkout_source

FABRIC_SEEDS = 16
CHAOS_SEEDS = 24
SERVICE_GRIDS = 100


def main() -> int:
    use_checkout_source()
    from repro import run_experiment
    from repro.workloads.fabricsim import simulate_fabric

    import wl_des
    import wl_service

    fabric = {}
    for seed in range(FABRIC_SEEDS):
        run = simulate_fabric(wl_des.fabric_workload(seed))
        fabric[str(seed)] = run.metrics["trace_sha256"]
        print(f"fabric_transport seed {seed}: {fabric[str(seed)]}", flush=True)
    chaos = {}
    for seed in range(CHAOS_SEEDS):
        result = run_experiment("X17", seed)
        if result.status != "ok":
            raise SystemExit(f"X17 seed {seed}: {result.error}")
        chaos[str(seed)] = wl_des.metrics_digest(result.metrics)
        print(f"chaos_load seed {seed}: {chaos[str(seed)]}", flush=True)
    service = wl_service.record_expected(SERVICE_GRIDS)
    expected = {
        "fabric_transport": {"packets": wl_des.FABRIC_PACKETS,
                             "seeds": fabric},
        "chaos_load": {"seeds": chaos},
        "service_jobs": service,
    }
    with open(EXPECTED_PATH, "w") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
