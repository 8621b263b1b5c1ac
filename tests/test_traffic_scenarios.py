"""Tests for the vectorized traffic-scenario engine (PR 10).

Three contracts are pinned here:

1. **Batch-vs-scalar equivalence** -- every scenario component
   (diurnal curve, flash crowds, MMPP bursts, heavy-tailed sessions,
   Zipf clients, the constant-rate inter-arrival fast path) must be
   bit-for-bit equal to the frozen scalar references in
   :mod:`repro._modelref`, across seeds and sizes. This is what lets
   the perf suite's 50x claim stand on an *equivalent* baseline.
2. **Bulk DES injection trace identity** --
   :meth:`~repro.engine.sim.Simulator.schedule_batch` must produce
   exactly the event ordering of a per-event scheduling loop, including
   under randomized interleavings with pending events on both sides of
   the near/far calendar horizon.
3. **Reroute byte-identity** -- X15's arrivals now come from
   :func:`repro.mc.traffic.poisson_inter_arrivals`; its quick seed-0
   ``results.json`` must match the golden file captured before the
   reroute, byte for byte.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro import _modelref
from repro.engine import Observability, Simulator
from repro.engine.randomness import RandomStream
from repro.engine.sim import _KIND_CALLBACK, SimulationError
from repro.errors import ModelError
from repro.mc import traffic
from repro.mc.traffic import (
    FlashCrowd,
    ScenarioSpec,
    arrival_times,
    client_ids,
    peak_rate,
    poisson_inter_arrivals,
    scenario_trace,
    session_lengths,
)

GOLDEN_DIR = Path(__file__).parent / "golden"

SEEDS = (0, 1, 2)

CROWD = FlashCrowd(
    start_s=30.0, ramp_s=10.0, peak_multiplier=3.0, decay_s=20.0, hold_s=5.0
)

#: One spec per component in isolation, plus the full composition.
COMPONENT_SPECS = {
    "constant": ScenarioSpec(base_rate_hz=200.0, horizon_s=60.0),
    "diurnal": ScenarioSpec(
        base_rate_hz=200.0, horizon_s=60.0,
        diurnal_amplitude=0.5, diurnal_period_s=60.0,
    ),
    "flash_crowd": ScenarioSpec(
        base_rate_hz=200.0, horizon_s=120.0, flash_crowds=(CROWD,),
    ),
    "bursts": ScenarioSpec(
        base_rate_hz=200.0, horizon_s=60.0,
        burst_multiplier=2.5, burst_mean_s=2.0, calm_mean_s=6.0,
    ),
    "composed": ScenarioSpec(
        base_rate_hz=200.0, horizon_s=120.0,
        diurnal_amplitude=0.4, diurnal_period_s=120.0,
        flash_crowds=(
            CROWD,
            FlashCrowd(start_s=70.0, ramp_s=5.0, peak_multiplier=1.8,
                       decay_s=10.0),
        ),
        burst_multiplier=2.0, burst_mean_s=3.0, calm_mean_s=9.0,
    ),
}


def _reference_arrivals(spec, seed):
    crowds = tuple(
        (c.start_s, c.ramp_s, c.peak_multiplier, c.decay_s, c.hold_s)
        for c in spec.flash_crowds
    )
    return _modelref.reference_arrival_times(
        spec.base_rate_hz, spec.horizon_s, spec.diurnal_amplitude,
        spec.diurnal_period_s, crowds, spec.burst_multiplier,
        spec.burst_mean_s, spec.calm_mean_s, seed,
    )


class TestArrivalEquivalence:
    @pytest.mark.parametrize("name", sorted(COMPONENT_SPECS))
    @pytest.mark.parametrize("seed", SEEDS)
    def test_batch_equals_scalar_reference(self, name, seed):
        spec = COMPONENT_SPECS[name]
        batch = arrival_times(spec, seed)
        reference = _reference_arrivals(spec, seed)
        assert batch.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("horizon_s", [0.004, 0.02, 5.0])
    def test_tiny_horizons_equivalent(self, horizon_s):
        # Down to expected candidate counts of ~1 and ~2 (and sometimes
        # zero -- the empty-batch path must agree too).
        spec = ScenarioSpec(
            base_rate_hz=200.0, horizon_s=horizon_s,
            diurnal_amplitude=0.3, diurnal_period_s=max(horizon_s, 1.0),
        )
        for seed in SEEDS:
            batch = arrival_times(spec, seed)
            reference = _reference_arrivals(spec, seed)
            assert batch.tobytes() == reference.tobytes()

    def test_million_scale_equivalent_once(self):
        # One large composed draw (~60k arrivals here; the full 1e6
        # point runs in the perf suite where the time is budgeted).
        spec = ScenarioSpec(
            base_rate_hz=2_000.0, horizon_s=30.0,
            diurnal_amplitude=0.35, diurnal_period_s=30.0,
            flash_crowds=(FlashCrowd(start_s=9.0, ramp_s=1.5,
                                     peak_multiplier=2.0, decay_s=3.0,
                                     hold_s=1.5),),
            burst_multiplier=1.5, burst_mean_s=1.0, calm_mean_s=4.0,
        )
        batch = arrival_times(spec, 0)
        assert len(batch) > 50_000
        assert batch.tobytes() == _reference_arrivals(spec, 0).tobytes()

    def test_arrivals_sorted_within_horizon(self):
        spec = COMPONENT_SPECS["composed"]
        times = arrival_times(spec, 3)
        assert np.all(np.diff(times) >= 0)
        assert times[0] >= 0.0 and times[-1] < spec.horizon_s

    def test_rate_curve_never_exceeds_peak(self):
        spec = COMPONENT_SPECS["composed"]
        grid = np.linspace(0.0, spec.horizon_s, 10_001)
        bound = peak_rate(spec)
        # The deterministic rate (diurnal curve and flash crowds) times
        # the MMPP burst multiplier must fit under the thinning bound.
        rate = (spec.base_rate_hz * traffic._diurnal_factor(spec, grid)
                * traffic._flash_factor(spec, grid))
        assert float(np.max(rate)) * spec.burst_multiplier <= bound


class TestSessionAndClientEquivalence:
    @pytest.mark.parametrize("tail", ["lognormal", "pareto"])
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("n", [1, 2, 1000])
    def test_session_lengths_equivalent(self, tail, seed, n):
        spec = ScenarioSpec(
            base_rate_hz=1.0, horizon_s=1.0, session_tail=tail,
            session_median_s=2.0, session_sigma=0.7,
            session_shape=1.7, session_scale_s=0.3,
        )
        batch = session_lengths(spec, n, seed)
        reference = _modelref.reference_session_lengths(
            tail, 2.0, 0.7, 1.7, 0.3, n, seed
        )
        assert batch.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("n", [1, 2, 1000])
    def test_client_ids_equivalent(self, seed, n):
        spec = ScenarioSpec(
            base_rate_hz=1.0, horizon_s=1.0, n_clients=500, client_skew=1.1
        )
        batch = client_ids(spec, n, seed)
        reference = _modelref.reference_client_ids(500, 1.1, n, seed)
        assert batch.tobytes() == reference.tobytes()

    def test_client_ids_in_range_and_skewed(self):
        spec = ScenarioSpec(
            base_rate_hz=1.0, horizon_s=1.0, n_clients=100, client_skew=1.2
        )
        ids = client_ids(spec, 20_000, 0)
        assert ids.min() >= 0 and ids.max() < 100
        # Zipf: rank 0 must dominate a uniform share.
        assert np.mean(ids == 0) > 5.0 / 100

    def test_inter_arrivals_match_sequential_stream_draws(self):
        rate_hz, n = 250.0, 400
        batch = poisson_inter_arrivals(rate_hz, n, RandomStream(7, "gaps"))
        scalar_stream = RandomStream(7, "gaps")
        scalar = [scalar_stream.exponential(1.0 / rate_hz) for _ in range(n)]
        assert batch == scalar

    def test_scenario_trace_components_independent(self):
        # The composition invariant: reconfiguring the session tail must
        # not perturb the arrival or client draws.
        base = ScenarioSpec(base_rate_hz=100.0, horizon_s=20.0, n_clients=50,
                            client_skew=0.9)
        pareto = ScenarioSpec(base_rate_hz=100.0, horizon_s=20.0, n_clients=50,
                              client_skew=0.9, session_tail="pareto")
        a, b = scenario_trace(base, 5), scenario_trace(pareto, 5)
        assert a["times_s"].tobytes() == b["times_s"].tobytes()
        assert a["client_ids"].tobytes() == b["client_ids"].tobytes()
        assert a["session_lengths_s"].tobytes() != b["session_lengths_s"].tobytes()
        assert len(a["times_s"]) == len(a["client_ids"])
        assert len(a["times_s"]) == len(a["session_lengths_s"])


class TestSpecValidation:
    @pytest.mark.parametrize("kwargs", [
        {"base_rate_hz": 0.0},
        {"horizon_s": -1.0},
        {"diurnal_amplitude": 1.0},
        {"diurnal_amplitude": -0.1},
        {"diurnal_period_s": 0.0},
        {"burst_multiplier": 0.5},
        {"burst_multiplier": 2.0},  # bursty without burst/calm means
        {"session_tail": "weibull"},
        {"session_median_s": 0.0},
        {"session_shape": -1.0},
        {"n_clients": 0},
        {"client_skew": -0.5},
        {"flash_crowds": ("not a crowd",)},
    ])
    def test_bad_spec_rejected(self, kwargs):
        base = {"base_rate_hz": 10.0, "horizon_s": 1.0}
        base.update(kwargs)
        with pytest.raises(ModelError):
            ScenarioSpec(**base)

    @pytest.mark.parametrize("kwargs", [
        {"start_s": -1.0},
        {"ramp_s": 0.0},
        {"peak_multiplier": 0.9},
        {"decay_s": 0.0},
        {"hold_s": -0.1},
    ])
    def test_bad_flash_crowd_rejected(self, kwargs):
        base = {"start_s": 1.0, "ramp_s": 1.0, "peak_multiplier": 2.0,
                "decay_s": 1.0}
        base.update(kwargs)
        with pytest.raises(ModelError):
            FlashCrowd(**base)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("field", [
        "base_rate_hz", "horizon_s", "diurnal_period_s", "burst_multiplier",
        "burst_mean_s", "calm_mean_s", "session_median_s", "session_sigma",
        "session_shape", "session_scale_s", "n_clients", "client_skew",
    ])
    def test_non_finite_spec_field_rejected(self, field, value):
        base = {"base_rate_hz": 10.0, "horizon_s": 1.0,
                "burst_mean_s": 0.1, "calm_mean_s": 0.1}
        base[field] = value
        with pytest.raises(ModelError, match=field):
            ScenarioSpec(**base)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("field", [
        "start_s", "ramp_s", "peak_multiplier", "decay_s", "hold_s",
    ])
    def test_non_finite_flash_crowd_field_rejected(self, field, value):
        base = {"start_s": 1.0, "ramp_s": 1.0, "peak_multiplier": 2.0,
                "decay_s": 1.0}
        base[field] = value
        with pytest.raises(ModelError, match=field):
            FlashCrowd(**base)

    def test_flash_crowds_coerced_to_tuple(self):
        spec = ScenarioSpec(base_rate_hz=1.0, horizon_s=1.0,
                            flash_crowds=[CROWD])
        assert isinstance(spec.flash_crowds, tuple)

    @pytest.mark.parametrize("call", [
        lambda: poisson_inter_arrivals(0.0, 1, RandomStream(0, "x")),
        lambda: poisson_inter_arrivals(1.0, -1, RandomStream(0, "x")),
        lambda: session_lengths(
            ScenarioSpec(base_rate_hz=1.0, horizon_s=1.0), -1, 0),
        lambda: client_ids(
            ScenarioSpec(base_rate_hz=1.0, horizon_s=1.0), -1, 0),
    ])
    def test_bad_generator_args_rejected(self, call):
        with pytest.raises(ModelError):
            call()


def _record_events(sim, label, log):
    def callback(payload):
        log.append((label, sim.now, payload))
    return callback


def _drive(inject):
    """One simulation: 200 pre-run events, a run to establish a near
    horizon, then 50 mid-run injections straddling it; returns the log.
    """
    rng = np.random.default_rng(1234)
    sim = Simulator()
    log = []
    callback = _record_events(sim, "cb", log)
    pre = np.sort(rng.uniform(0.0, 10.0, size=200)).tolist()
    inject(sim, pre, callback)
    sim.run(until=4.0)
    mid = np.sort(rng.uniform(4.0, 12.0, size=50)).tolist()
    inject(sim, mid, callback)
    sim.run()
    return log, sim.now, sim.events_processed


class TestScheduleBatchTraceIdentity:
    def test_batch_matches_per_event_loop(self):
        def batch(sim, whens, callback):
            sim.schedule_batch(whens, callback)

        def loop(sim, whens, callback):
            for index, when in enumerate(whens):
                sim._push((when, sim._seq_next(), _KIND_CALLBACK,
                           callback, index))

        assert _drive(batch) == _drive(loop)

    @pytest.mark.parametrize("trial", range(5))
    def test_randomized_interleavings(self, trial):
        rng = np.random.default_rng(100 + trial)

        def run(batched):
            sim = Simulator()
            log = []
            callback = _record_events(sim, "x", log)
            t = 0.0
            for _ in range(6):
                chunk = np.sort(rng.uniform(t, t + 3.0, size=40)).tolist()
                if batched:
                    sim.schedule_batch(chunk, callback)
                else:
                    for index, when in enumerate(chunk):
                        sim._push((when, sim._seq_next(), _KIND_CALLBACK,
                                   callback, index))
                t += rng.uniform(0.5, 2.0)
                sim.run(until=t)
            sim.run()
            return log, sim.now, sim.events_processed

        state = rng.bit_generator.state
        batched = run(True)
        rng.bit_generator.state = state
        looped = run(False)
        assert batched == looped

    def test_default_payloads_are_indices(self):
        sim = Simulator()
        seen = []
        sim.schedule_batch([0.5, 1.5], seen.append)
        sim.run()
        assert seen == [0, 1]

    def test_empty_batch_is_noop(self):
        sim = Simulator()
        assert sim.schedule_batch([], lambda _p: None) == 0
        assert sim.run() == 0.0

    def test_rejects_descending_times(self):
        sim = Simulator()
        with pytest.raises(SimulationError, match="ascending"):
            sim.schedule_batch([2.0, 1.0], lambda _p: None)

    def test_rejects_past_times(self):
        sim = Simulator()
        sim.schedule_batch([1.0], lambda _p: None)
        sim.run()
        with pytest.raises(SimulationError, match="past"):
            sim.schedule_batch([0.5], lambda _p: None)

    def test_accepts_numpy_arrays(self):
        sim = Simulator()
        seen = []
        sim.schedule_batch(np.array([0.25, 0.75]), seen.append)
        sim.run()
        assert seen == [0, 1]
        assert sim.now == 0.75


class TestCalendarCounters:
    def test_batch_insert_and_refill_counters(self):
        obs = Observability()
        sim = Simulator(observability=obs)
        sim.schedule_batch([float(i) * 0.01 for i in range(500)],
                           lambda _p: None)
        sim.run()
        counters = obs.registry.snapshot()["counters"]
        assert counters["engine.calendar.batch_inserted"] == 500.0
        assert counters["engine.calendar.refills"] >= 1.0

    def test_below_horizon_pushes_never_grow_sorted_segment(self):
        obs = Observability()
        sim = Simulator(observability=obs)
        refills = obs.registry.counter("engine.calendar.refills")
        n = 20_000
        samples = []
        fired = []

        def follow_up(index):
            fired.append((sim.now, index))

        def arrival(index):
            # The pre-scheduled batch set the horizon to its last
            # arrival, so this push lands below it.
            samples.append((refills.value, len(sim._near)))
            sim.schedule_batch([sim.now + 0.5],
                               lambda _first, index=index: follow_up(index))

        sim.schedule_batch([float(i) for i in range(n)], arrival)
        sim.run()
        counters = obs.registry.snapshot()["counters"]
        assert counters["engine.calendar.batch_inserted"] == 2.0 * n
        # One refill absorbs the batch; every follow-up went to the heap
        # tier, so the sorted segment kept its refill-time length and
        # the follow-ups fired in order.
        assert set(samples) == {(1.0, n)}
        assert fired == [(i + 0.5, i) for i in range(n)]

    def test_detached_observability_has_no_counters(self):
        sim = Simulator()
        sim.schedule_batch([1.0], lambda _p: None)
        assert sim.run() == 1.0  # and no AttributeError on the None path


class TestX15RerouteByteIdentity:
    def test_quick_seed0_results_match_pre_reroute_golden(self, tmp_path):
        # The golden was captured from the pre-reroute scalar
        # per-request draws; the batched inter-arrival fast path must
        # reproduce the canonical results.json byte for byte.
        from repro.runner import run_grid

        grid = run_grid("X15", seeds=[0], quick=True, use_cache=False,
                        retries=0)
        assert grid.all_ok, grid.failures
        path = grid.write_json(tmp_path / "results.json")
        golden = (GOLDEN_DIR / "x15_quick_seed0_results.json").read_bytes()
        assert path.read_bytes() == golden


class TestChaosBodyByteIdentity:
    # X12 and X17 share one search and one memory simulation body; the
    # goldens were captured from the earlier per-exhibit copies (X12 fed
    # by per-event source processes), and the shared bodies must
    # reproduce both canonical results.json files byte for byte. E2's
    # golden was captured before processes began resuming inline on
    # already-fired events; with X15 above, every process-based exhibit
    # has a pinned results file.
    @pytest.mark.parametrize("experiment", ["E2", "X12", "X17"])
    def test_quick_seed0_results_match_golden(self, experiment, tmp_path):
        from repro.runner import run_grid

        grid = run_grid(experiment, seeds=[0], quick=True, use_cache=False,
                        retries=0)
        assert grid.all_ok, grid.failures
        path = grid.write_json(tmp_path / "results.json")
        name = f"{experiment.lower()}_quick_seed0_results.json"
        assert path.read_bytes() == (GOLDEN_DIR / name).read_bytes()


#: X17's registered quick problem size (QUICK_CONFIGS["X17"]).
_X17_QUICK = {"search_horizon_s": 0.8, "memory_horizon_s": 1.0}


class TestX17Registration:
    def test_x17_quick_runs_and_wins_every_regime(self):
        from repro.runner import run_experiment

        result = run_experiment("X17", config=_X17_QUICK, seed=0)
        assert result.ok, result.error
        metrics = result.metrics
        assert metrics["search.regimes_won_by_hedging"] == 4
        assert metrics["memory.regimes_won_by_resilience"] == 4
        assert metrics["search.p99_recovery.min"] >= 0.5
        assert metrics["memory.availability_gain.min"] > 0.0
        for regime in ("steady", "diurnal", "flash_crowd", "heavy_tail"):
            assert metrics[f"search.{regime}.winner"] == "hedged"
            assert metrics[f"memory.{regime}.winner"] == "resilient"

    def test_x17_quick_is_deterministic(self):
        from repro.runner import run_experiment

        first = run_experiment("X17", config=_X17_QUICK, seed=0)
        second = run_experiment("X17", config=_X17_QUICK, seed=0)
        assert json.dumps(first.to_dict(), sort_keys=True) == json.dumps(
            second.to_dict(), sort_keys=True
        )
