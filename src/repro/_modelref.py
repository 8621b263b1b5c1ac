"""Frozen scalar reference kernels for the analytical-model layer.

The PR-2 ``_perfref`` pattern applied to the model layer: this module
holds self-contained, scalar (one-sample-per-call) copies of the hot
analytical models that :mod:`repro.mc` vectorizes -- the accelerator-ROI
cashflow model, the commodity-year Monte-Carlo scenario, the SoC-vs-SiP
volume curve, market concentration / Bass adoption paths, and the survey
theme statistics. The perf suite (``python -m repro perf``, suite
``models``) times each batch kernel against its reference here, and the
equivalence tests in ``tests/test_mc_models.py`` pin the two paths to
identical outputs.

Determinism contract: every reference draws random variates from the
same ``numpy`` generator stream *in the same order* as the batch kernel
(batched ``Generator`` draws are stream-equivalent to repeated scalar
draws of the same distribution) and evaluates the model with the same
floating-point operation order, using ``numpy`` scalar transcendentals
(``np.log`` / ``np.exp``) rather than ``math.*`` so both sides share one
libm entry point. Batch-vs-reference equality is therefore bit-for-bit,
and the perf harness verifies it before reporting any timing.

Nothing here imports the live model modules: like ``_perfref``, the
formulas are frozen copies, so later optimizations to the production
kernels cannot silently change what "reference" means.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

__all__ = [
    "reference_adoption_paths",
    "reference_arrival_times",
    "reference_client_ids",
    "reference_commodity_year_samples",
    "reference_cost_per_unit_curve",
    "reference_hhi",
    "reference_npv_sweep",
    "reference_sampled_market_shares",
    "reference_sampled_unit_costs",
    "reference_session_lengths",
    "reference_theme_statistics",
]


# ---------------------------------------------------------------------------
# Commodity-year Monte-Carlo scenario (core/scenarios.py pre-vectorization).
# ---------------------------------------------------------------------------


def _trl_weighted_steps(trl: int) -> float:
    """Frozen copy of ``TrlSchedule.years_to_trl``'s step weighting."""
    if not 1 <= trl <= 9:
        raise ValueError(f"TRL must be 1-9, got {trl}")
    if trl >= 9:
        return 0.0
    steps = 9 - trl
    return sum(1.0 + 0.15 * (trl + i - 1) for i in range(1, steps + 1))


def reference_commodity_year_samples(
    trl_2016: int,
    risk: float,
    investment_acceleration: float,
    n_samples: int,
    seed: int,
    start_year: int = 2016,
) -> np.ndarray:
    """Scalar-loop commodity-year sampler (one model call per sample).

    Batch draw order (all paces, then all imitation coefficients), but
    the TRL schedule and Bass inverse are evaluated per sample in pure
    Python -- the pre-vectorization cost profile.
    """
    rng = np.random.default_rng(int(seed))
    sigma = 0.05 + 0.5 * risk
    log_median = np.log(2.0)
    pace = np.array(
        [rng.lognormal(log_median, sigma) for _ in range(n_samples)]
    )
    q_sigma = 0.1 * (1 + risk)
    q_raw = np.array([rng.normal(0.4, q_sigma) for _ in range(n_samples)])
    weighted = _trl_weighted_steps(trl_2016)
    years = np.empty(n_samples)
    for i in range(n_samples):
        intro = start_year + weighted * pace[i] / investment_acceleration
        q = max(0.05, q_raw[i])
        p = 0.02
        numerator = 1.0 - 0.3
        denominator = 1.0 + (q / p) * 0.3
        years[i] = intro + -np.log(numerator / denominator) / (p + q)
    return years


# ---------------------------------------------------------------------------
# Accelerator-ROI cashflow model (econ/roi.py scalar semantics).
# ---------------------------------------------------------------------------

#: Default field values of the frozen AcceleratorInvestment model.
ROI_DEFAULTS: Dict[str, float] = {
    "hardware_usd": 0.0,
    "port_effort_person_months": 0.0,
    "engineer_usd_per_month": 12_000.0,
    "speedup": 1.0,
    "baseline_compute_value_usd_per_year": 100_000.0,
    "accelerator_power_w": 250.0,
    "electricity_usd_per_kwh": 0.10,
    "pue": 1.5,
    "utilization": 0.5,
    "discount_rate": 0.08,
}


def _roi_sample(params: Mapping[str, np.ndarray], i: int) -> Dict[str, float]:
    sample = {}
    for key, default in ROI_DEFAULTS.items():
        values = np.asarray(params.get(key, default))
        sample[key] = float(values if values.ndim == 0 else values[i])
    return sample


def _reference_cashflows(sample: Mapping[str, float], horizon: int) -> List[float]:
    upfront = (
        sample["hardware_usd"]
        + sample["port_effort_person_months"] * sample["engineer_usd_per_month"]
    )
    freed = sample["utilization"] * (1.0 - 1.0 / sample["speedup"])
    benefit = sample["baseline_compute_value_usd_per_year"] * freed
    hours = 24 * 365 * sample["utilization"]
    kwh = sample["accelerator_power_w"] / 1000.0 * hours * sample["pue"]
    energy = kwh * sample["electricity_usd_per_kwh"]
    net = benefit - energy
    return [-upfront] + [net] * horizon


def reference_npv_sweep(
    params: Mapping[str, np.ndarray], n_samples: int, horizon_years: int
) -> np.ndarray:
    """One scalar cashflow + NPV evaluation per parameter sample."""
    out = np.empty(n_samples)
    for i in range(n_samples):
        sample = _roi_sample(params, i)
        flows = _reference_cashflows(sample, horizon_years)
        rate = sample["discount_rate"]
        out[i] = sum(
            cash / (1.0 + rate) ** year for year, cash in enumerate(flows)
        )
    return out


# ---------------------------------------------------------------------------
# SoC-vs-SiP volume curve (econ/silicon.py + econ/soc_sip.py semantics).
# ---------------------------------------------------------------------------

_WAFER_DIAMETER_MM = 300.0


def _ref_dies_per_wafer(die_area_mm2: float) -> int:
    radius = _WAFER_DIAMETER_MM / 2.0
    wafer_area = math.pi * radius**2
    edge_loss = math.pi * _WAFER_DIAMETER_MM / np.sqrt(2.0 * die_area_mm2)
    count = wafer_area / die_area_mm2 - edge_loss
    return max(0, int(count))


def _ref_die_cost(die_area_mm2, wafer_cost_usd, defect_density, alpha=3.0):
    gross = _ref_dies_per_wafer(die_area_mm2)
    defects = defect_density * die_area_mm2 / 100.0
    good_fraction = (1.0 + defects / alpha) ** -alpha
    good = gross * good_fraction
    if good < 1e-9:
        raise ValueError("yield is effectively zero for this die size")
    return wafer_cost_usd / good


def _design_unit_costs(design) -> Tuple[float, float]:
    """Frozen per-unit silicon cost of the SoC and the SiP."""
    leading = design.leading_node
    total_area = sum(
        s.area_at_28nm_mm2 / leading.density_vs_28nm for s in design.subsystems
    )
    soc = _ref_die_cost(
        total_area, leading.wafer_cost_usd, leading.defect_density_per_cm2
    )
    die_total = 0.0
    for subsystem in design.subsystems:
        node = leading if subsystem.needs_leading_edge else design.commodity_node
        area = subsystem.area_at_28nm_mm2 / node.density_vs_28nm
        die_total += _ref_die_cost(
            area, node.wafer_cost_usd, node.defect_density_per_cm2
        )
    n = len(design.subsystems)
    packaged = die_total + (
        design.packaging.base_usd + design.packaging.per_chiplet_usd * n
    )
    sip = packaged / design.packaging.assembly_yield**n
    return soc, sip


def _design_nre_totals(design) -> Tuple[float, float]:
    """Frozen total NRE of the SoC and SiP projects."""
    rates = design.rates
    effort = sum(s.design_effort_person_years for s in design.subsystems)

    def project_nre(node, design_effort, ip_licensing, respins):
        design_cost = design_effort * rates.hardware_engineer_usd_per_year
        verification = design_cost * rates.verification_fraction
        masks = node.mask_set_cost_usd * (1 + respins)
        return design_cost + verification + masks + ip_licensing

    soc = project_nre(design.leading_node, effort + 0.25 * effort, 0.0, 1)
    mask_total = sum(
        (design.leading_node if s.needs_leading_edge else design.commodity_node)
        .mask_set_cost_usd
        for s in design.subsystems
    )
    sip = project_nre(
        design.commodity_node,
        effort,
        mask_total - design.commodity_node.mask_set_cost_usd,
        0,
    )
    return soc, sip


def reference_cost_per_unit_curve(
    design, volumes: Sequence[float]
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-volume scalar sweep, recomputing unit costs at every point.

    This is the pre-vectorization cost profile of calling
    ``ChipDesign.cost_per_unit_at_volume`` in a loop: the die-cost and
    NRE aggregation is volume-independent but was re-evaluated per call.
    """
    soc_out = np.empty(len(volumes))
    sip_out = np.empty(len(volumes))
    for i, volume in enumerate(volumes):
        soc_unit, sip_unit = _design_unit_costs(design)
        soc_nre, sip_nre = _design_nre_totals(design)
        soc_out[i] = soc_unit + soc_nre / volume
        sip_out[i] = sip_unit + sip_nre / volume
    return soc_out, sip_out


def reference_sampled_unit_costs(
    design, area_sigma: float, n_samples: int, seed: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Scalar Monte-Carlo over lognormal subsystem-area jitter."""
    rng = np.random.default_rng(int(seed))
    n_subsystems = len(design.subsystems)
    jitter = np.array(
        [rng.lognormal(0.0, area_sigma) for _ in range(n_samples * n_subsystems)]
    ).reshape(n_samples, n_subsystems)
    soc_out = np.empty(n_samples)
    sip_out = np.empty(n_samples)
    leading = design.leading_node
    for i in range(n_samples):
        total_area = 0.0
        die_total = 0.0
        for j, subsystem in enumerate(design.subsystems):
            area_28 = subsystem.area_at_28nm_mm2 * jitter[i, j]
            total_area = total_area + area_28 / leading.density_vs_28nm
            node = (
                leading
                if subsystem.needs_leading_edge
                else design.commodity_node
            )
            die_total = die_total + _ref_die_cost(
                area_28 / node.density_vs_28nm,
                node.wafer_cost_usd,
                node.defect_density_per_cm2,
            )
        soc_out[i] = _ref_die_cost(
            total_area, leading.wafer_cost_usd, leading.defect_density_per_cm2
        )
        packaged = die_total + (
            design.packaging.base_usd
            + design.packaging.per_chiplet_usd * n_subsystems
        )
        sip_out[i] = packaged / design.packaging.assembly_yield**n_subsystems
    return soc_out, sip_out


# ---------------------------------------------------------------------------
# Market concentration and Bass adoption paths (ecosystem/market.py,
# core/adoption.py scalar semantics).
# ---------------------------------------------------------------------------


def reference_hhi(shares: np.ndarray) -> np.ndarray:
    """Row-wise HHI (0-10,000 scale) via a per-row scalar fold."""
    shares = np.asarray(shares, dtype=float)
    out = np.empty(shares.shape[0])
    for i in range(shares.shape[0]):
        total = 0.0
        for share in shares[i]:
            scaled = share * 100.0
            total = total + scaled * scaled
        out[i] = total
    return out


def reference_sampled_market_shares(
    shares: Sequence[float], sigma: float, n_samples: int, seed: int
) -> np.ndarray:
    """Scalar lognormal share jitter with per-row renormalization."""
    rng = np.random.default_rng(int(seed))
    k = len(shares)
    jitter = np.array(
        [rng.lognormal(0.0, sigma) for _ in range(n_samples * k)]
    ).reshape(n_samples, k)
    out = np.empty((n_samples, k))
    for i in range(n_samples):
        row = [shares[j] * jitter[i, j] for j in range(k)]
        total = 0.0
        for value in row:
            total = total + value
        for j in range(k):
            out[i, j] = row[j] / total
    return out


def reference_adoption_paths(
    p: float, q_values: np.ndarray, t_grid: np.ndarray
) -> np.ndarray:
    """Scalar Bass cumulative-fraction paths, one (sample, t) at a time."""
    out = np.empty((len(q_values), len(t_grid)))
    for i, q in enumerate(q_values):
        for j, t in enumerate(t_grid):
            if t < 0:
                out[i, j] = 0.0
                continue
            expo = np.exp(-(p + q) * t)
            out[i, j] = (1.0 - expo) / (1.0 + (q / p) * expo)
    return out


# ---------------------------------------------------------------------------
# Survey theme statistics (survey/analysis.py scalar semantics).
# ---------------------------------------------------------------------------


def reference_theme_statistics(
    interview_themes: Sequence[Sequence[str]],
    roles: Sequence[str],
    themes: Sequence[str],
) -> Dict[str, Dict[str, float]]:
    """Per-theme corpus fraction and per-role cross-tab, scalar loops.

    One full pass over the corpus per theme (membership scan per
    interview), as the pre-vectorization analysis layer did.
    """
    n = len(interview_themes)
    out: Dict[str, Dict[str, float]] = {}
    for theme in themes:
        hits = sum(1 for coded in interview_themes if theme in coded)
        totals: Dict[str, int] = {}
        role_hits: Dict[str, int] = {}
        for coded, role in zip(interview_themes, roles):
            totals[role] = totals.get(role, 0) + 1
            if theme in coded:
                role_hits[role] = role_hits.get(role, 0) + 1
        stats = {"fraction": hits / n}
        for role, count in totals.items():
            stats[f"fraction.{role}"] = role_hits.get(role, 0) / count
        out[theme] = stats
    return out


# ---------------------------------------------------------------------------
# Traffic-scenario generators (mc/traffic.py pre-vectorization).
# ---------------------------------------------------------------------------

_TWO_PI = 2.0 * np.pi


def reference_arrival_times(
    base_rate_hz: float,
    horizon_s: float,
    diurnal_amplitude: float,
    diurnal_period_s: float,
    flash_crowds: Sequence[Tuple[float, float, float, float, float]],
    burst_multiplier: float,
    burst_mean_s: float,
    calm_mean_s: float,
    seed: int,
) -> np.ndarray:
    """Scalar-loop inhomogeneous-Poisson thinning (one candidate at a time).

    Frozen copy of the pre-vectorization scenario generator: the same
    draw order as :func:`repro.mc.traffic.arrival_times` (one Poisson
    count, per-candidate uniforms, the MMPP switch loop, per-candidate
    acceptance uniforms) with the rate function -- diurnal sinusoid,
    additive flash-crowd excess, burst-state multiplier -- evaluated in
    pure Python per candidate. ``flash_crowds`` entries are
    ``(start_s, ramp_s, peak_multiplier, decay_s, hold_s)`` tuples.
    """
    rng = np.random.default_rng(int(seed))
    lam_max = base_rate_hz * (1.0 + diurnal_amplitude)
    boost = 0.0
    for _start, _ramp, peak, _decay, _hold in flash_crowds:
        boost = boost + (peak - 1.0)
    lam_max = lam_max * (1.0 + boost)
    bursty = burst_multiplier > 1.0
    if bursty:
        lam_max = lam_max * burst_multiplier
    m = int(rng.poisson(lam_max * horizon_s))
    if m == 0:
        return np.empty(0, dtype=np.float64)
    candidates = np.sort(
        np.array([rng.random() * horizon_s for _ in range(m)])
    )
    edges = np.empty(0, dtype=np.float64)
    if bursty:
        edge_list = []
        t_edge = 0.0
        in_burst = False
        while t_edge < horizon_s:
            mean = burst_mean_s if in_burst else calm_mean_s
            t_edge += float(rng.exponential(mean))
            edge_list.append(t_edge)
            in_burst = not in_burst
        edges = np.asarray(edge_list, dtype=np.float64)
    accepted: List[float] = []
    for t in candidates:
        if diurnal_amplitude == 0.0:
            diurnal = 1.0
        else:
            diurnal = 1.0 + diurnal_amplitude * np.sin(
                _TWO_PI * (t / diurnal_period_s)
            )
        flash = 1.0
        for start, ramp, peak, decay, hold in flash_crowds:
            rel = t - start
            shape = rel / ramp
            if shape < 0.0:
                shape = 0.0
            elif shape > 1.0:
                shape = 1.0
            tail_rel = rel - (ramp + hold)
            if tail_rel > 0.0:
                shape = np.exp(-tail_rel / decay)
            flash = flash + (peak - 1.0) * shape
        rate = base_rate_hz * diurnal
        rate = rate * flash
        if bursty:
            interval = int(np.searchsorted(edges, t, side="right"))
            rate = rate * (burst_multiplier if interval & 1 else 1.0)
        if rng.random() * lam_max < rate:
            accepted.append(float(t))
    return np.asarray(accepted, dtype=np.float64)


def reference_session_lengths(
    tail: str,
    median_s: float,
    sigma: float,
    shape: float,
    scale_s: float,
    n: int,
    seed: int,
) -> np.ndarray:
    """Scalar-loop heavy-tailed session lengths (one draw per session).

    Same parameterization and stream as
    :func:`repro.mc.traffic.session_lengths`: lognormal by median and
    log-space sigma, Pareto by shape and scale with minimum ``scale``.
    """
    rng = np.random.default_rng(int(seed))
    if tail == "lognormal":
        log_median = np.log(median_s)
        return np.array(
            [rng.lognormal(log_median, sigma) for _ in range(n)],
            dtype=np.float64,
        )
    return np.array(
        [scale_s * (1.0 + rng.pareto(shape)) for _ in range(n)],
        dtype=np.float64,
    )


def reference_client_ids(
    n_clients: int,
    skew: float,
    n: int,
    seed: int,
) -> np.ndarray:
    """Scalar-loop Zipf client ids (one CDF inversion per arrival).

    Same rank-CDF construction and uniform stream as
    :func:`repro.mc.traffic.client_ids`, inverted one draw at a time.
    """
    rng = np.random.default_rng(int(seed))
    ranks = np.arange(1, n_clients + 1, dtype=np.float64)
    weights = ranks**-skew
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    return np.asarray(
        [int(np.searchsorted(cdf, rng.random(), side="right")) for _ in range(n)],
        dtype=np.int64,
    )
