"""Vectorized traffic-scenario engine: million-user arrival traces.

The roadmap argues that big-data systems must be provisioned against
*realistic* traffic -- diurnal cycles, flash crowds, heavy-tailed
sessions, correlated bursts, skewed client populations -- not uniform
open-loop load. This module is the scenario library behind that: a
declarative :class:`ScenarioSpec` (same idiom as
:class:`~repro.engine.faults.FaultSpec`) composes those components, and
every generator produces a full trace as a handful of numpy batch draws
instead of one Python-level draw per user.

Generation algorithms, all vectorized:

- **Inhomogeneous Poisson arrivals by thinning**
  (:func:`arrival_times`): candidate arrivals are drawn as one
  homogeneous batch at the scenario's peak rate (one Poisson count, one
  uniform batch, one sort) and each candidate is accepted with
  probability ``rate(t) / peak_rate`` using one more uniform batch. The
  deterministic modulation (diurnal curve, flash crowds) is evaluated
  with array transcendentals; the Markov-modulated burst state is a
  tiny scalar loop over state switches (tens of draws) followed by one
  ``searchsorted`` over all candidates.
- **Inter-arrival cumsum** (:func:`poisson_inter_arrivals`): the
  constant-rate fast path used by the service exhibit -- one
  exponential batch, stream-equivalent to the scalar per-request draws
  it replaced.
- **Heavy-tailed sessions** (:func:`session_lengths`): one lognormal or
  Pareto batch.
- **Zipf client skew** (:func:`client_ids`): one uniform batch against
  a precomputed rank CDF.

Determinism contract (the PR-5 pattern): every kernel draws its
variates in a documented batch order from a single seeded
``numpy.random.Generator`` and keeps the scalar model's floating-point
operation order, so batch traces are bit-for-bit equal to the frozen
scalar references in :mod:`repro._modelref`
(``reference_arrival_times`` and friends), verified by the ``traffic``
perf suite and the equivalence tests. Thinning preserves this under
composition: adding a component only changes the *deterministic* rate
function and the peak-rate bound, never the draw order, so composed
scenarios stay reproducible (see DESIGN.md, "Scenario composition
invariants").
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Dict, Tuple

import numpy as np

from repro.errors import ModelError

__all__ = [
    "FlashCrowd",
    "ScenarioSpec",
    "arrival_times",
    "client_ids",
    "peak_rate",
    "poisson_inter_arrivals",
    "scenario_trace",
    "session_lengths",
]

_TWO_PI = 2.0 * np.pi

#: Session-length tail families understood by :func:`session_lengths`.
_SESSION_TAILS = ("lognormal", "pareto")


def _require_finite(spec) -> None:
    """ModelError for a NaN or infinite float field of a spec dataclass."""
    for item in fields(spec):
        value = getattr(spec, item.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ModelError(f"{item.name} must be finite, got {value}")


@dataclass(frozen=True)
class FlashCrowd:
    """One flash-crowd episode: linear ramp, plateau, exponential decay.

    The episode multiplies the base rate by ``1`` outside its window and
    by up to ``peak_multiplier`` inside it: the excess rate ramps
    linearly from 0 to ``peak_multiplier - 1`` over ``ramp_s`` seconds
    starting at ``start_s``, holds for ``hold_s`` seconds, then decays
    exponentially with time constant ``decay_s``. Overlapping episodes
    compose additively in their excess (a second crowd during the first
    adds load; it does not multiply it).
    """

    start_s: float
    ramp_s: float
    peak_multiplier: float
    decay_s: float
    hold_s: float = 0.0

    def __post_init__(self) -> None:
        _require_finite(self)
        if self.start_s < 0:
            raise ModelError(f"flash crowd start_s must be >= 0, got {self.start_s}")
        if self.ramp_s <= 0:
            raise ModelError(f"flash crowd ramp_s must be positive, got {self.ramp_s}")
        if self.peak_multiplier < 1:
            raise ModelError(
                f"flash crowd peak_multiplier must be >= 1, got {self.peak_multiplier}"
            )
        if self.decay_s <= 0:
            raise ModelError(f"flash crowd decay_s must be positive, got {self.decay_s}")
        if self.hold_s < 0:
            raise ModelError(f"flash crowd hold_s must be >= 0, got {self.hold_s}")


@dataclass(frozen=True)
class ScenarioSpec:
    """Declarative description of one traffic scenario.

    Composable components, each off by default so the default spec is a
    plain constant-rate Poisson process:

    - ``diurnal_amplitude`` / ``diurnal_period_s``: sinusoidal rate
      modulation ``1 + a * sin(2*pi*t/T)`` (``0 <= a < 1``).
    - ``flash_crowds``: a tuple of :class:`FlashCrowd` episodes whose
      excess rates add on top of the diurnal curve.
    - ``burst_multiplier`` / ``burst_mean_s`` / ``calm_mean_s``: a
      two-state Markov-modulated Poisson process (MMPP) -- the rate is
      multiplied by ``burst_multiplier`` during exponentially
      distributed burst intervals, giving correlated arrival bursts.
    - ``session_tail`` + its parameters: the heavy-tailed session
      length family (``"lognormal"`` or ``"pareto"``).
    - ``n_clients`` / ``client_skew``: Zipf skew over client ids, the
      regional/hot-client population model.

    Validation mirrors :class:`~repro.engine.faults.FaultSpec`: a bad
    field raises :class:`~repro.errors.ModelError` at construction.
    """

    base_rate_hz: float
    horizon_s: float
    diurnal_amplitude: float = 0.0
    diurnal_period_s: float = 86_400.0
    flash_crowds: Tuple[FlashCrowd, ...] = ()
    burst_multiplier: float = 1.0
    burst_mean_s: float = 0.0
    calm_mean_s: float = 0.0
    session_tail: str = "lognormal"
    session_median_s: float = 1.0
    session_sigma: float = 0.8
    session_shape: float = 1.5
    session_scale_s: float = 0.5
    n_clients: int = 1
    client_skew: float = 0.0

    def __post_init__(self) -> None:
        _require_finite(self)
        if self.base_rate_hz <= 0:
            raise ModelError(f"base_rate_hz must be positive, got {self.base_rate_hz}")
        if self.horizon_s <= 0:
            raise ModelError(f"horizon_s must be positive, got {self.horizon_s}")
        if not 0.0 <= self.diurnal_amplitude < 1.0:
            raise ModelError(
                "diurnal_amplitude must be in [0, 1), got "
                f"{self.diurnal_amplitude}"
            )
        if self.diurnal_period_s <= 0:
            raise ModelError(
                f"diurnal_period_s must be positive, got {self.diurnal_period_s}"
            )
        object.__setattr__(self, "flash_crowds", tuple(self.flash_crowds))
        for crowd in self.flash_crowds:
            if not isinstance(crowd, FlashCrowd):
                raise ModelError(f"flash_crowds entries must be FlashCrowd, got {crowd!r}")
        if self.burst_multiplier < 1:
            raise ModelError(
                f"burst_multiplier must be >= 1, got {self.burst_multiplier}"
            )
        if self.burst_multiplier > 1 and (
            self.burst_mean_s <= 0 or self.calm_mean_s <= 0
        ):
            raise ModelError(
                "bursty scenarios need positive burst_mean_s and calm_mean_s"
            )
        if self.session_tail not in _SESSION_TAILS:
            raise ModelError(
                f"unknown session_tail {self.session_tail!r}; expected one of "
                f"{_SESSION_TAILS}"
            )
        if self.session_median_s <= 0 or self.session_sigma <= 0:
            raise ModelError("lognormal session parameters must be positive")
        if self.session_shape <= 0 or self.session_scale_s <= 0:
            raise ModelError("pareto session parameters must be positive")
        if self.n_clients < 1:
            raise ModelError(f"need at least one client, got {self.n_clients}")
        if self.client_skew < 0:
            raise ModelError(f"client_skew must be >= 0, got {self.client_skew}")

    @property
    def bursty(self) -> bool:
        """Whether the MMPP burst component is active."""
        return self.burst_multiplier > 1.0


def peak_rate(spec: ScenarioSpec) -> float:
    """Upper bound on the instantaneous rate, used as the thinning bound.

    The product of each component's individual maximum: the diurnal
    crest, the sum of all flash-crowd excesses (they compose
    additively), and the burst-state multiplier. Always >= ``rate(t)``
    for every ``t``, which is the thinning correctness condition.
    """
    bound = spec.base_rate_hz * (1.0 + spec.diurnal_amplitude)
    boost = 0.0
    for crowd in spec.flash_crowds:
        boost = boost + (crowd.peak_multiplier - 1.0)
    bound = bound * (1.0 + boost)
    if spec.bursty:
        bound = bound * spec.burst_multiplier
    return bound


def _diurnal_factor(spec: ScenarioSpec, times_s: np.ndarray) -> np.ndarray:
    """Sinusoidal modulation ``1 + a*sin(2*pi*t/T)`` (array of 1s if off)."""
    if spec.diurnal_amplitude == 0.0:
        return np.ones_like(times_s)
    return 1.0 + spec.diurnal_amplitude * np.sin(
        _TWO_PI * (times_s / spec.diurnal_period_s)
    )


def _flash_factor(spec: ScenarioSpec, times_s: np.ndarray) -> np.ndarray:
    """Additive flash-crowd excess on top of 1 (array of 1s if none)."""
    factor = np.ones_like(times_s)
    for crowd in spec.flash_crowds:
        rel = times_s - crowd.start_s
        shape = np.clip(rel / crowd.ramp_s, 0.0, 1.0)
        tail_rel = rel - (crowd.ramp_s + crowd.hold_s)
        shape = np.where(
            tail_rel > 0.0,
            np.exp(-np.maximum(tail_rel, 0.0) / crowd.decay_s),
            shape,
        )
        factor = factor + (crowd.peak_multiplier - 1.0) * shape
    return factor


def _burst_edges(spec: ScenarioSpec, rng: np.random.Generator) -> np.ndarray:
    """Sample the MMPP state-switch times covering the horizon.

    A tiny scalar loop (one exponential holding time per state switch,
    typically tens of draws): interval 0 starts calm at ``t=0`` and the
    state alternates at each edge, so a time with an odd
    ``searchsorted`` index is in a burst. Both the batch kernel and the
    frozen scalar reference run this exact loop, so the stream stays
    aligned.
    """
    edges = []
    t_edge = 0.0
    in_burst = False
    while t_edge < spec.horizon_s:
        mean = spec.burst_mean_s if in_burst else spec.calm_mean_s
        t_edge += float(rng.exponential(mean))
        edges.append(t_edge)
        in_burst = not in_burst
    return np.asarray(edges, dtype=np.float64)


def arrival_times(spec: ScenarioSpec, seed: int) -> np.ndarray:
    """All arrival times in ``[0, horizon_s)``, ascending, via thinning.

    Batch draw order (the frozen scalar reference
    :func:`repro._modelref.reference_arrival_times` draws identically):

    1. one Poisson count ``m`` at ``peak_rate * horizon`` (candidates);
    2. ``m`` uniforms scaled to the horizon, then one sort;
    3. the MMPP state-switch loop (scalar, only if bursty);
    4. ``m`` acceptance uniforms.

    A candidate at ``t`` is kept when ``u * peak_rate < rate(t)``. The
    number of *accepted* arrivals is random; callers that need the count
    take ``len()`` of the result.
    """
    lam_max = peak_rate(spec)
    rng = np.random.default_rng(int(seed))
    m = int(rng.poisson(lam_max * spec.horizon_s))
    if m == 0:
        return np.empty(0, dtype=np.float64)
    candidates = np.sort(rng.random(size=m) * spec.horizon_s)
    rate = spec.base_rate_hz * _diurnal_factor(spec, candidates)
    rate = rate * _flash_factor(spec, candidates)
    if spec.bursty:
        edges = _burst_edges(spec, rng)
        interval = np.searchsorted(edges, candidates, side="right")
        rate = rate * np.where((interval & 1) == 1, spec.burst_multiplier, 1.0)
    accept = rng.random(size=m) * lam_max < rate
    return candidates[accept].copy()


def session_lengths(spec: ScenarioSpec, n: int, seed: int) -> np.ndarray:
    """``n`` heavy-tailed session lengths (seconds) as one batch draw.

    ``"lognormal"`` is parameterized by median and log-space sigma
    (matching :meth:`~repro.engine.randomness.RandomStream.lognormal`);
    ``"pareto"`` by shape and scale with minimum value ``scale``
    (matching :meth:`~repro.engine.randomness.RandomStream.pareto`).
    """
    if n < 0:
        raise ModelError(f"n must be >= 0, got {n}")
    rng = np.random.default_rng(int(seed))
    if spec.session_tail == "lognormal":
        return rng.lognormal(np.log(spec.session_median_s), spec.session_sigma, size=n)
    return spec.session_scale_s * (1.0 + rng.pareto(spec.session_shape, size=n))


def client_ids(spec: ScenarioSpec, n: int, seed: int) -> np.ndarray:
    """``n`` Zipf-skewed client ids in ``0..n_clients-1`` as one batch.

    One uniform batch inverted through the precomputed rank CDF
    (``searchsorted``), so the skew parameterization matches
    :meth:`~repro.engine.randomness.RandomStream.zipf_indices` while the
    draw stays a single vectorized pass.
    """
    if n < 0:
        raise ModelError(f"n must be >= 0, got {n}")
    rng = np.random.default_rng(int(seed))
    ranks = np.arange(1, spec.n_clients + 1, dtype=np.float64)
    weights = ranks**-spec.client_skew
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    return np.searchsorted(cdf, rng.random(size=n), side="right").astype(np.int64)


def poisson_inter_arrivals(rate_hz: float, n: int, stream) -> list:
    """``n`` constant-rate Poisson inter-arrival gaps as one batch draw.

    The scenario library's degenerate (all components off) case, and the
    fast path the service exhibit feeds its open-loop source from.
    ``stream`` is a :class:`~repro.engine.randomness.RandomStream`; the
    batch draw is stream-equivalent to ``n`` sequential
    ``stream.exponential(1/rate_hz)`` calls, so rerouted callers keep
    byte-identical traces. Returns plain Python floats (``tolist``) so
    downstream virtual times stay JSON-native.
    """
    if rate_hz <= 0:
        raise ModelError(f"rate_hz must be positive, got {rate_hz}")
    if n < 0:
        raise ModelError(f"n must be >= 0, got {n}")
    return stream.numpy.exponential(1.0 / rate_hz, size=int(n)).tolist()


def _component_seed(seed: int, name: str) -> int:
    """Stable per-component child seed (FNV-1a over the component name).

    Mirrors :meth:`~repro.engine.randomness.RandomStream.fork`'s
    intent -- order-independent, collision-resistant sub-streams -- with
    arithmetic simple enough to restate in a frozen reference.
    """
    value = 1469598103934665603  # FNV-1a offset basis
    for byte in name.encode("utf-8"):
        value ^= byte
        value = (value * 1099511628211) % (2**63)
    return (int(seed) * 1099511628211 + value) % (2**63)


def scenario_trace(spec: ScenarioSpec, seed: int) -> Dict[str, np.ndarray]:
    """One full trace: arrival times, client ids, session lengths.

    Each component draws from an independent sub-seed
    (:func:`_component_seed` over the component name), so enabling or
    reconfiguring one component never perturbs another's draws -- the
    composition invariant the equivalence tests pin per component.
    """
    times = arrival_times(spec, _component_seed(seed, "traffic.arrivals"))
    n = len(times)
    return {
        "times_s": times,
        "client_ids": client_ids(spec, n, _component_seed(seed, "traffic.clients")),
        "session_lengths_s": session_lengths(
            spec, n, _component_seed(seed, "traffic.sessions")
        ),
    }
