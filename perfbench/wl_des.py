"""The two in-process DES workloads: ``fabric_transport`` and ``chaos_load``.

Both drive the program only through public calls -- ``build_fabric`` /
``simulate_fabric`` and ``run_experiment("X17", ...)`` -- and check
every unit's output against the value recorded for its input seed.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from typing import Any, Dict, List

from bench_common import (
    SETUP_REPEATS,
    Tracer,
    end_to_end,
    input_order,
    load_expected,
    measure,
    median,
    note,
    probe_setup,
    workdir,
)
from layers import UNATTRIBUTED, profile_call
from speed import SpeedProbe

#: Packets per ``simulate_fabric`` unit -- fixed across seeds because the
#: host cost per event grows with the number pending in the calendar.
FABRIC_PACKETS = 40_000
FABRIC_DURATION_S = 4e-3
FABRIC_K = 30
#: Offset X14 adds to its seed for the workload's own stream.
X14_SEED_BASE = 101_250

#: Profiled layers reported by name; every other repo module is summed
#: into ``repro.other_self_s``.
NAMED_LAYERS = (
    "engine.sim.calendar", "engine.sim.process", "engine.sim.loop",
    "workloads.fabricsim", "engine.sharded.sync", "network.topology",
    "engine.faults", "engine.resources", "engine.resilience", "mc.traffic",
    "network.routing", "workloads.scenario",
)
_LAYER_METRIC = {
    "engine.sim.calendar": "engine.sim.calendar_self_s",
    "engine.sim.process": "engine.sim.process_self_s",
    "engine.sim.loop": "engine.sim.loop_self_s",
    "engine.sharded.sync": "engine.sharded.sync.trace_digest_s",
}


def x14_faults(duration: float):
    """X14's link-flap and switch-crash schedule (valid for even k >= 4)."""
    from repro.engine.faults import FaultSpec

    return (
        FaultSpec(kind="link-flap",
                  targets=(("agg0-0", "core0-0"), ("agg1-1", "core1-0")),
                  mtbf_s=duration / 3.0, mttr_s=duration / 4.0,
                  end_s=duration),
        FaultSpec(kind="switch-crash", targets=("agg2-0",),
                  mtbf_s=duration / 2.0, mttr_s=duration / 3.0,
                  end_s=duration),
    )


def fabric_workload(seed: int, k: int = FABRIC_K,
                    packets: int = FABRIC_PACKETS):
    from repro.workloads.fabricsim import FabricWorkload

    return FabricWorkload(
        fabric="fat-tree", k=k, n_requests=packets,
        duration_s=FABRIC_DURATION_S, seed=X14_SEED_BASE + seed,
        fault_specs=x14_faults(FABRIC_DURATION_S),
    )


def metrics_digest(metrics: Dict[str, Any]) -> str:
    """SHA-256 of a metrics dict in sorted-key JSON (floats at full repr)."""
    text = json.dumps(metrics, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class FabricTransport:
    """X14's transport workload on the sequential ``simulate_fabric``."""

    name = "fabric_transport"

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.build_s = 0.0

    def setup(self) -> None:
        from repro.workloads.fabricsim import build_fabric, simulate_fabric

        t0 = time.perf_counter()
        build_fabric(fabric_workload(0))
        self.build_s = time.perf_counter() - t0
        simulate_fabric(fabric_workload(0, k=4, packets=200))

    def run_unit(self, seed: int, expected: Dict[str, Any]) -> Dict[str, Any]:
        from repro.workloads.fabricsim import simulate_fabric

        with self.tracer.span("simulate_fabric", seed=seed):
            run = simulate_fabric(fabric_workload(seed))
        metrics = run.metrics
        return {
            "ok": metrics["trace_sha256"] == expected["seeds"][str(seed)],
            "ops": metrics["delivered"] + metrics["dropped"],
            "events": run.diagnostics["events_processed"],
        }

    def extra_layers(self, records: List[Dict[str, Any]]) -> Dict[str, float]:
        events = sum(r["events"] for r in records)
        return {
            "engine.sim.events": float(records[0]["events"]),
            "engine.sim.events_per_request":
                events / sum(r["ops"] for r in records),
            "network.topology.build_s": self.build_s,
        }


class ChaosLoad:
    """The registered X17 chaos x load matrix, one seed per unit."""

    name = "chaos_load"

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer

    def setup(self) -> None:
        from repro import run_experiment

        run_experiment("X17", 0, {"search_horizon_s": 0.2,
                                  "memory_horizon_s": 0.2})

    def run_unit(self, seed: int, expected: Dict[str, Any]) -> Dict[str, Any]:
        from repro import run_experiment

        with self.tracer.span("run_experiment", experiment="X17", seed=seed):
            result = run_experiment("X17", seed)
        metrics = result.metrics
        ok = (result.status == "ok"
              and metrics_digest(metrics) == expected["seeds"][str(seed)])
        searched = sum(v for k, v in metrics.items()
                       if k.startswith("search.") and k.endswith(".n_requests"))
        read = sum(v for k, v in metrics.items()
                   if k.startswith("memory.") and k.endswith(".completed"))
        copies = [v for k, v in metrics.items()
                  if k.endswith(".hedged.copies_per_request")]
        attempts = [v for k, v in metrics.items()
                    if k.endswith(".resilient.attempts_per_read")]
        return {
            "ok": ok, "ops": searched + read,
            "copies": sum(copies) / len(copies) if copies else 0.0,
            "attempts": sum(attempts) / len(attempts) if attempts else 0.0,
        }

    def extra_layers(self, records: List[Dict[str, Any]]) -> Dict[str, float]:
        return {
            "resilience.copies_per_request":
                sum(r["copies"] for r in records) / len(records),
            "memory.attempts_per_read":
                sum(r["attempts"] for r in records) / len(records),
        }


WORKLOADS = {cls.name: cls for cls in (FabricTransport, ChaosLoad)}


def setup_probe(name: str) -> None:
    """The body of one set-up probe: imports plus warm-up, then ready."""
    WORKLOADS[name](Tracer(False)).setup()


def run(name: str, seed: int, seconds: float, trace: bool,
        probe: SpeedProbe):
    """One benchmark run; returns ``(correct, attempted, failed, metrics)``.

    Phase times are scaled to nominal speed with ``probe`` (speed.py).
    """
    expected = load_expected(name)
    setup = [probe_setup(name) for _ in range(SETUP_REPEATS)]
    tracer = Tracer(False)
    workload = WORKLOADS[name](tracer)
    workload.setup()
    inputs = input_order(name, seed, [int(s) for s in expected["seeds"]])

    def unit(item: int) -> Dict[str, Any]:
        return workload.run_unit(item, expected)

    if not trace:
        since, until, records = measure(seconds, inputs, unit)
        failed = sum(1 for r in records if not r["ok"])
        walls = [r["wall_s"] for r in records]
        mean_ref, _ = probe.window(since, until)
        note(f"{name}: {len(records)} units, raw unit wall s min/median/max "
             f"{min(walls):.3f}/{median(walls):.3f}/{max(walls):.3f}, "
             f"raw phase {until - since:.3f}s, reference "
             f"{mean_ref * 1e3:.3f}ms, setup samples "
             f"{['%.3f' % s for s in setup]}")
        return (failed == 0, len(records), failed,
                end_to_end(setup, probe.scaled(since, until), records))

    since, middle, untraced = measure(seconds / 2, inputs, unit)
    rest = inputs[len(untraced):]
    tracer.enabled = True
    traced_since, until, traced = measure(seconds / 2, rest, unit)
    rest = rest[len(traced):]
    if not rest:
        rest = inputs[:1]
    tracer.enabled = False
    # The reference must not run inside the profile: its frames would
    # be charged to whichever repo function it interrupted.
    probe.stop()
    t0 = time.perf_counter()
    profiled, self_times = profile_call(lambda: unit(rest[0]))
    profiled_wall = time.perf_counter() - t0
    tracer.export(os.path.join(workdir(f"trace-{name}"), "spans.jsonl"))

    records = untraced + traced + [profiled]
    failed = sum(1 for r in records if not r["ok"])
    wall = probe.scaled(traced_since, until) / len(traced)
    untraced_wall = probe.scaled(since, middle) / len(untraced)
    raw_wall = median([r["wall_s"] for r in untraced + traced])
    total = sum(self_times.values())
    share = {layer: value / total for layer, value in self_times.items()}
    layers: Dict[str, float] = {}
    for layer in NAMED_LAYERS:
        metric = _LAYER_METRIC.get(layer, f"{layer}.self_s")
        layers[metric] = share.get(layer, 0.0) * wall
    other = sum(v for k, v in share.items()
                if k not in NAMED_LAYERS and k != UNATTRIBUTED)
    layers["repro.other_self_s"] = other * wall
    layers["unattributed_self_s"] = share.get(UNATTRIBUTED, 0.0) * wall
    layers["profile.accounted_share"] = sum(
        share.get(layer, 0.0) for layer in NAMED_LAYERS
    )
    layers["profile.dilation"] = profiled_wall / median(
        [r["wall_s"] for r in traced])
    layers["engine.sim.calendar_share"] = share.get("engine.sim.calendar", 0.0)
    layers["trace.wall_s"] = wall
    layers["trace.untraced_wall_s"] = untraced_wall
    layers["trace.overhead_s"] = wall - untraced_wall
    layers["speed.ref_ms"] = probe.window(since, until)[0] * 1e3
    layers["speed.raw_wall_s"] = raw_wall
    layers["error_rate"] = failed / len(records)
    layers.update(workload.extra_layers(records))
    ranked = sorted(share.items(), key=lambda kv: -kv[1])
    note(f"{name}: profile shares " + ", ".join(
        f"{k} {v:.3f}" for k, v in ranked[:12]))
    return failed == 0, len(records), failed, layers
