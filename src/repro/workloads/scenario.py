"""Chaos x load matrix (X17): headline claims under realistic traffic.

X12 established the headline resilience numbers -- hedging's Catapult-
style tail recovery and the disaggregated fabric's availability gain --
under open-loop *constant-rate* arrivals. The roadmap's provisioning
argument (SS III.B) is precisely that constant-rate load is the wrong
yardstick, so this module re-measures both claims under the
:mod:`repro.mc.traffic` scenario library's regimes:

- ``steady`` -- the X12 baseline shape (constant-rate Poisson);
- ``diurnal`` -- one full sinusoidal day compressed into the horizon;
- ``flash_crowd`` -- a ramp/hold/decay burst to 4x the base rate;
- ``heavy_tail`` -- MMPP-correlated bursts plus Pareto service times.

Each regime's full arrival trace is generated up front as a batch draw
(:func:`~repro.mc.traffic.scenario_trace`) and handed to X12's own
simulation bodies, :func:`~repro.workloads.chaos.run_search_chaos` and
:func:`~repro.workloads.chaos.run_memory_chaos`, which bulk-inject it
through :meth:`~repro.engine.sim.Simulator.schedule_batch`. The two
exhibits share one body per part, so the chaos machinery (straggler and
link-flap schedules from :mod:`repro.engine.faults`, hedging and
deadline/retry from :mod:`repro.engine.resilience`) is X12's by
construction; only the arrival source differs. The exhibit
reports a winner per regime x claim, so the matrix shows where the
resilience policies keep paying off and where realistic load erodes
them. Everything is deterministic given the seed; request counts vary
by regime because thinning accepts a random number of arrivals.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.engine import RandomStream
from repro.errors import ModelError
from repro.mc.traffic import FlashCrowd, ScenarioSpec, scenario_trace
from repro.workloads.chaos import (
    MEMORY_POLICIES,
    N_REPLICAS,
    SEARCH_POLICIES,
    run_memory_chaos,
    run_search_chaos,
)

#: Traffic regimes of the chaos x load matrix, in exhibit order.
TRAFFIC_REGIMES = ("steady", "diurnal", "flash_crowd", "heavy_tail")


def regime_spec(
    regime: str,
    base_rate_hz: float,
    horizon_s: float,
    session_median_s: float = 2.0e-3,
    session_sigma: float = 0.35,
    n_clients: int = 1,
    client_skew: float = 0.0,
) -> ScenarioSpec:
    """The :class:`~repro.mc.traffic.ScenarioSpec` for one regime.

    Regime shapes scale with the horizon so quick runs exercise the same
    structure: ``diurnal`` fits one full period into the horizon,
    ``flash_crowd`` ramps to 4x a quarter of the way in, ``heavy_tail``
    alternates MMPP burst/calm intervals and switches the session family
    to Pareto (scale chosen so the mean stays comparable to the
    lognormal regimes while the tail goes heavy).
    """
    if regime not in TRAFFIC_REGIMES:
        raise ModelError(
            f"unknown traffic regime {regime!r}; expected one of "
            f"{TRAFFIC_REGIMES}"
        )
    common: Dict[str, Any] = {
        "base_rate_hz": base_rate_hz,
        "horizon_s": horizon_s,
        "session_median_s": session_median_s,
        "session_sigma": session_sigma,
        "n_clients": n_clients,
        "client_skew": client_skew,
    }
    if regime == "diurnal":
        return ScenarioSpec(
            diurnal_amplitude=0.6, diurnal_period_s=horizon_s, **common
        )
    if regime == "flash_crowd":
        return ScenarioSpec(
            flash_crowds=(
                FlashCrowd(
                    start_s=0.25 * horizon_s,
                    ramp_s=0.05 * horizon_s,
                    peak_multiplier=4.0,
                    decay_s=0.10 * horizon_s,
                    hold_s=0.05 * horizon_s,
                ),
            ),
            **common,
        )
    if regime == "heavy_tail":
        return ScenarioSpec(
            burst_multiplier=3.0,
            burst_mean_s=0.04 * horizon_s,
            calm_mean_s=0.16 * horizon_s,
            session_tail="pareto",
            session_shape=1.6,
            session_scale_s=0.6 * session_median_s,
            **common,
        )
    return ScenarioSpec(**common)


def chaos_load_exhibit(
    base_qps: float = 700.0,
    search_horizon_s: float = 4.0,
    base_read_hz: float = 400.0,
    memory_horizon_s: float = 5.0,
    seed: int = 0,
) -> Dict[str, Any]:
    """The full chaos x load matrix; returns the X17 metrics.

    For every traffic regime the two X12 claims are re-measured and a
    winner declared: ``search.<regime>.winner`` is the policy with the
    lower p99 (the Catapult tail claim), ``memory.<regime>.winner`` the
    policy with the higher within-SLA availability (the dependable-
    fabric claim). Headline aggregates:

    - ``search.p99_recovery.min`` / ``.max``: the weakest and strongest
      tail recovery across regimes -- how robust the 29%-class claim is
      to realistic load.
    - ``memory.availability_gain.min`` / ``.max``: same for the
      disaggregation availability gain.
    - ``search.regimes_won_by_hedging`` /
      ``memory.regimes_won_by_resilience``: the matrix row sums.
    """
    metrics: Dict[str, Any] = {}
    recoveries: List[float] = []
    gains: List[float] = []
    search_wins = 0
    memory_wins = 0

    for regime in TRAFFIC_REGIMES:
        # One client id per search replica: the client id is the primary.
        trace = scenario_trace(
            regime_spec(
                regime, base_qps, search_horizon_s, n_clients=N_REPLICAS,
                client_skew=0.6,
            ),
            RandomStream(seed, "load").fork("search").seed,
        )
        parts = {
            policy: run_search_chaos(
                policy, trace["times_s"], trace["client_ids"],
                trace["session_lengths_s"], fault_end_s=search_horizon_s,
                seed=seed,
            )
            for policy in SEARCH_POLICIES
        }
        for policy, part in parts.items():
            for key, value in part.items():
                if key != "policy":
                    metrics[f"search.{regime}.{policy}.{key}"] = value
        recovery = 1.0 - parts["hedged"]["p99_s"] / parts["off"]["p99_s"]
        winner = "hedged" if parts["hedged"]["p99_s"] < parts["off"]["p99_s"] else "off"
        metrics[f"search.{regime}.p99_recovery"] = recovery
        metrics[f"search.{regime}.winner"] = winner
        recoveries.append(recovery)
        search_wins += winner == "hedged"

        times = scenario_trace(
            regime_spec(regime, base_read_hz, memory_horizon_s),
            RandomStream(seed, "load").fork("memory").seed,
        )["times_s"]
        parts = {
            policy: run_memory_chaos(
                policy, times, fault_end_s=memory_horizon_s,
                backoff_stream="load.memory.backoff", seed=seed,
            )
            for policy in MEMORY_POLICIES
        }
        for policy, part in parts.items():
            for key, value in part.items():
                if key != "policy":
                    metrics[f"memory.{regime}.{policy}.{key}"] = value
        gain = (
            parts["resilient"]["availability"] - parts["off"]["availability"]
        )
        winner = (
            "resilient"
            if parts["resilient"]["availability"] > parts["off"]["availability"]
            else "off"
        )
        metrics[f"memory.{regime}.availability_gain"] = gain
        metrics[f"memory.{regime}.winner"] = winner
        gains.append(gain)
        memory_wins += winner == "resilient"

    metrics["search.p99_recovery.min"] = min(recoveries)
    metrics["search.p99_recovery.max"] = max(recoveries)
    metrics["search.regimes_won_by_hedging"] = search_wins
    metrics["memory.availability_gain.min"] = min(gains)
    metrics["memory.availability_gain.max"] = max(gains)
    metrics["memory.regimes_won_by_resilience"] = memory_wins
    return metrics
