"""Vectorized accelerator-ROI kernels: N investments per call.

Batch twins of :class:`repro.econ.AcceleratorInvestment`'s scalar
methods. Every kernel takes a mapping of parameter name to scalar or
``(n,)`` array and evaluates all samples in one numpy pass, preserving
the scalar model's floating-point operation order exactly: for any
sample, ``npv_batch`` returns bit-for-bit the value
``AcceleratorInvestment(...).npv_usd()`` would.

``discount_rate`` and ``horizon_years`` must be scalars (the per-year
discount denominators are computed once, with the same Python-float
power the scalar model uses); every other parameter may vary per sample.
"""

from __future__ import annotations

from dataclasses import fields as dataclass_fields
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.econ.roi import AcceleratorInvestment
from repro.errors import ModelError

__all__ = [
    "decision_flip_batch",
    "investment_params",
    "npv_batch",
    "npv_utilization_sweep",
    "tornado_outputs_batch",
]

#: Parameters that must stay scalar in a batch evaluation.
_SCALAR_ONLY = ("discount_rate", "horizon_years")


def investment_params(
    investment: AcceleratorInvestment, **overrides: Any
) -> Dict[str, Any]:
    """The investment's fields as a kernel-ready parameter mapping.

    Keyword ``overrides`` (scalars or arrays) replace base fields, e.g.
    ``investment_params(inv, utilization=np.linspace(0, 1, 50))``.
    """
    params: Dict[str, Any] = {
        f.name: getattr(investment, f.name)
        for f in dataclass_fields(AcceleratorInvestment)
    }
    unknown = set(overrides) - set(params)
    if unknown:
        raise ModelError(f"unknown parameters: {sorted(unknown)}")
    params.update(overrides)
    return params


def _prepare(
    params: Mapping[str, Any]
) -> Tuple[Dict[str, Any], float, int, int]:
    """Validate and broadcast; returns (arrays, rate, horizon, n)."""
    for key in _SCALAR_ONLY:
        if np.ndim(params.get(key, 0)) != 0:
            raise ModelError(
                f"{key} must be a scalar in batch kernels; evaluate one "
                "batch per value instead"
            )
    rate = float(params.get("discount_rate", 0.08))
    horizon = int(params.get("horizon_years", 3))
    if horizon < 1:
        raise ModelError("horizon must be at least one year")
    if rate <= -1.0:
        raise ModelError(f"discount rate must exceed -100%, got {rate}")

    arrays: Dict[str, Any] = {}
    n = 1
    for key, value in params.items():
        if key in _SCALAR_ONLY:
            continue
        value = np.asarray(value, dtype=float)
        if value.ndim > 1:
            raise ModelError(f"{key}: batch parameters must be 1-D")
        if value.ndim == 1:
            if n != 1 and value.shape[0] != n:
                raise ModelError(
                    f"{key}: sample count {value.shape[0]} does not match "
                    f"the batch size {n}"
                )
            n = max(n, value.shape[0])
        arrays[key] = value

    speedup = arrays.get("speedup", np.float64(1.0))
    if np.any(speedup <= 0):
        raise ModelError("speedup must be positive in every sample")
    utilization = arrays.get("utilization", np.float64(0.5))
    if np.any(utilization < 0.0) or np.any(utilization > 1.0):
        raise ModelError("utilization must be in [0, 1] in every sample")
    return arrays, rate, horizon, n


def _get(arrays: Mapping[str, Any], key: str):
    default = {
        "hardware_usd": 0.0,
        "port_effort_person_months": 0.0,
        "engineer_usd_per_month": 12_000.0,
        "speedup": 1.0,
        "baseline_compute_value_usd_per_year": 100_000.0,
        "accelerator_power_w": 250.0,
        "electricity_usd_per_kwh": 0.10,
        "pue": 1.5,
        "utilization": 0.5,
    }[key]
    value = arrays.get(key)
    return np.float64(default) if value is None else value


def _upfront_and_net(arrays: Mapping[str, Any]):
    """Vectorized upfront cost and net yearly benefit (scalar op order)."""
    upfront = _get(arrays, "hardware_usd") + _get(
        arrays, "port_effort_person_months"
    ) * _get(arrays, "engineer_usd_per_month")
    utilization = _get(arrays, "utilization")
    freed = utilization * (1.0 - 1.0 / _get(arrays, "speedup"))
    benefit = _get(arrays, "baseline_compute_value_usd_per_year") * freed
    hours = 24 * 365 * utilization
    kwh = _get(arrays, "accelerator_power_w") / 1000.0 * hours * _get(
        arrays, "pue"
    )
    energy = kwh * _get(arrays, "electricity_usd_per_kwh")
    return upfront, benefit - energy


def npv_batch(params: Mapping[str, Any]) -> np.ndarray:
    """Discounted net value of every sampled investment, one pass.

    Accumulates year terms in the scalar model's order (year 0 first),
    with Python-float discount denominators, so each element equals the
    scalar ``npv_usd()`` bit for bit.
    """
    arrays, rate, horizon, n = _prepare(params)
    upfront, net = _upfront_and_net(arrays)
    total = np.broadcast_to(np.asarray(-upfront), (n,)).astype(
        float, copy=True
    )
    for year in range(1, horizon + 1):
        total += net / (1.0 + rate) ** year
    return total


def _two_point_batch(
    investment: AcceleratorInvestment, ranges: Sequence
) -> Optional[np.ndarray]:
    """NPV at (low, high) of every range in one batch; 2i is low.

    Returns ``None`` when a range touches a scalar-only parameter, in
    which case callers fall back to the scalar path.
    """
    if any(bounds.parameter in _SCALAR_ONLY for bounds in ranges):
        return None
    base = investment_params(investment)
    for bounds in ranges:
        if bounds.parameter not in base:
            raise ModelError(f"unknown parameter: {bounds.parameter!r}")
    n = 2 * len(ranges)
    params: Dict[str, Any] = dict(base)
    for i, bounds in enumerate(ranges):
        column = np.full(n, float(base[bounds.parameter]))
        if isinstance(params[bounds.parameter], np.ndarray):
            column = params[bounds.parameter]
        column[2 * i] = bounds.low
        column[2 * i + 1] = bounds.high
        params[bounds.parameter] = column
    return npv_batch(params)


def tornado_outputs_batch(
    investment: AcceleratorInvestment, ranges: Sequence
) -> Optional[np.ndarray]:
    """One-at-a-time NPV outputs for a tornado sweep, one batch call.

    Returns a ``(len(ranges), 2)`` array of ``(output_at_low,
    output_at_high)`` rows, or ``None`` when the sweep touches a
    parameter the batch kernel keeps scalar (``discount_rate``,
    ``horizon_years``).
    """
    outputs = _two_point_batch(investment, ranges)
    if outputs is None:
        return None
    return outputs.reshape(len(ranges), 2)


def decision_flip_batch(
    investment: AcceleratorInvestment, ranges: Sequence
) -> Optional[Dict[str, bool]]:
    """Which single parameters can flip the adopt/reject decision.

    Batched twin of :func:`repro.econ.decision_flips`; ``None`` when a
    range touches a scalar-only parameter.
    """
    outputs = _two_point_batch(investment, ranges)
    if outputs is None:
        return None
    base = investment.worthwhile()
    worthwhile = outputs.reshape(len(ranges), 2) > 0.0
    return {
        bounds.parameter: bool(
            (worthwhile[i, 0] != base) or (worthwhile[i, 1] != base)
        )
        for i, bounds in enumerate(ranges)
    }


def npv_utilization_sweep(
    investment: AcceleratorInvestment, utilizations: Sequence[float]
) -> np.ndarray:
    """NPV across a utilization grid (the E4 exhibit's sweep), batched."""
    params = investment_params(
        investment, utilization=np.asarray(utilizations, dtype=float)
    )
    return npv_batch(params)
