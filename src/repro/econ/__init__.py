"""Economic models: TCO, ROI, NRE, silicon cost, SoC-vs-SiP.

These models turn the roadmap's qualitative business arguments (Findings
2-4, Recommendations 4-6) into numbers. They are analytical, not
simulated: every function is deterministic given its inputs.
"""

from repro.econ.cost import (
    CostItem,
    EnergyPrice,
    TcoBreakdown,
    learning_curve_price,
    server_tco,
)
from repro.econ.nre import ChipProject, EngineeringRates, vendor_switch_nre_usd
from repro.econ.roi import (
    AcceleratorInvestment,
    breakeven_speedup,
    breakeven_utilization,
    npv,
)
from repro.econ.sensitivity import (
    SensitivityRange,
    TornadoBar,
    decision_flips,
    default_accelerator_ranges,
    tornado,
)
from repro.econ.silicon import (
    PROCESS_CATALOG,
    ProcessNode,
    die_cost_usd,
    dies_per_wafer,
    scaled_area_mm2,
    yield_negative_binomial,
    yield_poisson,
)
from repro.econ.soc_sip import (
    ChipDesign,
    PackagingModel,
    Subsystem,
    euroserver_reference_design,
)

__all__ = [
    "AcceleratorInvestment",
    "ChipDesign",
    "ChipProject",
    "CostItem",
    "EnergyPrice",
    "EngineeringRates",
    "PROCESS_CATALOG",
    "PackagingModel",
    "ProcessNode",
    "SensitivityRange",
    "Subsystem",
    "TcoBreakdown",
    "TornadoBar",
    "breakeven_speedup",
    "breakeven_utilization",
    "decision_flips",
    "default_accelerator_ranges",
    "die_cost_usd",
    "dies_per_wafer",
    "euroserver_reference_design",
    "learning_curve_price",
    "npv",
    "scaled_area_mm2",
    "server_tco",
    "tornado",
    "vendor_switch_nre_usd",
    "yield_negative_binomial",
    "yield_poisson",
]
