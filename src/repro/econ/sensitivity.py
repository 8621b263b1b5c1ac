"""One-at-a-time (tornado) sensitivity analysis for economic models.

Finding 2 says adoption decisions are dominated by *uncertainty* ("it is
difficult to predict the level of gains ahead of time"). A tornado
analysis shows which input the decision actually hinges on -- typically
utilization and speedup, not hardware price, which is the roadmap's
argument for benchmarks (R9) and pilot projects (R4).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List

from repro.econ.roi import AcceleratorInvestment
from repro.errors import ModelError


@dataclass(frozen=True)
class SensitivityRange:
    """Low/high bounds for one model input."""

    parameter: str
    low: float
    high: float

    def __post_init__(self) -> None:
        if self.low > self.high:
            raise ModelError(
                f"{self.parameter}: low bound exceeds high bound"
            )


@dataclass(frozen=True)
class TornadoBar:
    """One parameter's output swing."""

    parameter: str
    output_at_low: float
    output_at_high: float

    @property
    def swing(self) -> float:
        """Absolute output range this parameter controls."""
        return abs(self.output_at_high - self.output_at_low)


def _check_parameters(
    investment: AcceleratorInvestment, ranges: List[SensitivityRange]
) -> None:
    """Refuse a range over a field the investment does not have."""
    valid_fields = set(investment.__dataclass_fields__)
    for bounds in ranges:
        if bounds.parameter not in valid_fields:
            raise ModelError(f"unknown parameter: {bounds.parameter!r}")


def tornado(
    investment: AcceleratorInvestment,
    ranges: List[SensitivityRange],
    metric: Callable[[AcceleratorInvestment], float] = None,
) -> List[TornadoBar]:
    """One-at-a-time sweep; bars sorted by swing, largest first.

    ``metric`` defaults to NPV. Each range costs two metric evaluations,
    one at each bound with every other input at its base value.

    Edge cases are well-defined: an empty ``ranges`` list raises
    :class:`~repro.errors.ModelError`, as does a range over an unknown
    parameter; a degenerate range (``low == high``) yields a zero-swing
    bar; equal swings tie-break deterministically by parameter name.
    """
    if not ranges:
        raise ModelError(
            "need at least one parameter range (got an empty list)"
        )
    _check_parameters(investment, ranges)
    metric = metric or (lambda inv: inv.npv_usd())
    bars = []
    for bounds in ranges:
        low = metric(replace(investment, **{bounds.parameter: bounds.low}))
        high = metric(replace(investment, **{bounds.parameter: bounds.high}))
        bars.append(TornadoBar(bounds.parameter, low, high))
    return sorted(bars, key=lambda b: (-b.swing, b.parameter))


def default_accelerator_ranges() -> List[SensitivityRange]:
    """The Finding-2 uncertainty set for accelerator adoption."""
    return [
        SensitivityRange("utilization", 0.1, 0.9),
        SensitivityRange("speedup", 2.0, 10.0),
        SensitivityRange("hardware_usd", 5_000.0, 80_000.0),
        SensitivityRange("port_effort_person_months", 2.0, 18.0),
        SensitivityRange("electricity_usd_per_kwh", 0.05, 0.25),
    ]


def decision_flips(
    investment: AcceleratorInvestment,
    ranges: List[SensitivityRange],
) -> Dict[str, bool]:
    """Which single parameters can flip the adopt/reject decision.

    A range over an unknown parameter raises
    :class:`~repro.errors.ModelError`.
    """
    _check_parameters(investment, ranges)
    base = investment.worthwhile()
    flips = {}
    for bounds in ranges:
        low = replace(investment, **{bounds.parameter: bounds.low})
        high = replace(investment, **{bounds.parameter: bounds.high})
        flips[bounds.parameter] = (
            low.worthwhile() != base or high.worthwhile() != base
        )
    return flips
