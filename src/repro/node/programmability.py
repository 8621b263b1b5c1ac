"""Port-effort and abstraction-coverage models (§IV.C).

The roadmap's software-support section argues that "there are no common
abstractions that work for everything": each hardware class demands its
own programming model, OpenCL is portable but unoptimized, and the total
cost of keeping pace with heterogeneous hardware is what keeps European
vendors on commodity CPUs.

This module computes, for a portfolio of kernels and a set of target
devices, the engineering effort of each porting strategy -- the
quantitative backbone of experiment E15 and Recommendation 6 (improve
FPGA programmability).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.errors import ModelError
from repro.node.device import ComputeDevice, ProgrammingModel


@dataclass(frozen=True)
class PortingStrategy:
    """How a software vendor targets heterogeneous devices.

    ``native_everywhere``: hand-port every kernel to every device's
    native model (maximum performance, maximum effort).
    ``portable_kernel``: write OpenCL-style portable kernels once per
    kernel, run wherever supported (low effort, pays the efficiency tax).
    ``cpu_only``: the Finding-1/2 default -- never port anything.
    """

    name: str

    def __post_init__(self) -> None:
        if self.name not in ("native_everywhere", "portable_kernel", "cpu_only"):
            raise ModelError(f"unknown strategy: {self.name!r}")


def port_effort_person_months(
    strategy: PortingStrategy,
    n_kernels: int,
    devices: Sequence[ComputeDevice],
    portable_base_effort_pm: float = 1.0,
) -> float:
    """Total effort for ``n_kernels`` under ``strategy`` across ``devices``.

    ``portable_kernel`` costs one base effort per kernel (writing the
    portable version) regardless of device count; ``native_everywhere``
    pays each device's per-kernel port effort; ``cpu_only`` costs nothing
    beyond existing code.
    """
    if n_kernels < 0:
        raise ModelError("kernel count cannot be negative")
    if strategy.name == "cpu_only":
        return 0.0
    if strategy.name == "portable_kernel":
        return n_kernels * portable_base_effort_pm
    total = 0.0
    for device in devices:
        total += n_kernels * device.programmability.port_effort_person_months
    return total


def achievable_throughput_fraction(
    strategy: PortingStrategy, device: ComputeDevice
) -> float:
    """Fraction of the device's tuned throughput the strategy achieves.

    ``native_everywhere`` reaches 1.0 of the device's effective peak;
    ``portable_kernel`` reaches the portable efficiency where a portable
    model is supported, else 0 (the device is unusable from portable
    code -- the paper's ASIC/neuromorphic case); ``cpu_only`` uses no
    accelerator at all.
    """
    if strategy.name == "cpu_only":
        return 0.0
    if strategy.name == "native_everywhere":
        return 1.0
    prog = device.programmability
    portable_options = {
        ProgrammingModel.OPENCL,
        ProgrammingModel.HLS,
    }
    if portable_options & set(prog.portable_models):
        return prog.portable_efficiency
    if prog.native_model in portable_options:
        return 1.0
    return 0.0


@dataclass
class AbstractionMatrix:
    """Which programming models reach which devices, and how well.

    The computable version of the paper's "too many abstractions"
    discussion: rows are programming models, columns devices, entries the
    achievable fraction of tuned device throughput (0 = cannot target).
    """

    devices: List[ComputeDevice]

    def __post_init__(self) -> None:
        if not self.devices:
            raise ModelError("matrix needs at least one device")

    def coverage(self, model: ProgrammingModel) -> Dict[str, float]:
        """Per-device achievable fraction for one programming model."""
        out: Dict[str, float] = {}
        for device in self.devices:
            prog = device.programmability
            if model == prog.native_model:
                out[device.name] = 1.0
            elif model in prog.portable_models:
                out[device.name] = prog.portable_efficiency
            else:
                out[device.name] = 0.0
        return out

    def best_universal_model(self) -> tuple:
        """The model reaching the most devices (ties: higher mean fraction).

        The paper's answer is OpenCL -- broad but inefficient; the test
        suite asserts this emerges from the catalog.
        """
        best: tuple = (None, -1, -1.0)
        for model in ProgrammingModel:
            cov = self.coverage(model)
            reached = sum(1 for v in cov.values() if v > 0)
            mean_frac = sum(cov.values()) / len(cov)
            if (reached, mean_frac) > (best[1], best[2]):
                best = (model, reached, mean_frac)
        return best

    def fragmentation_index(self) -> float:
        """Minimum number of models needed to reach every device, divided
        by the device count. 1.0 = every device needs its own model
        (total fragmentation); 1/n = one model reaches all.

        Computed greedily (set cover); exact for the small catalogs used
        here.
        """
        uncovered = {d.name for d in self.devices}
        models_used = 0
        while uncovered:
            best_model, best_gain = None, 0
            for model in ProgrammingModel:
                cov = self.coverage(model)
                gain = sum(1 for name in uncovered if cov.get(name, 0) > 0)
                if gain > best_gain:
                    best_model, best_gain = model, gain
            if best_model is None:
                raise ModelError(
                    f"devices unreachable by any model: {sorted(uncovered)}"
                )
            cov = self.coverage(best_model)
            uncovered -= {name for name in uncovered if cov.get(name, 0) > 0}
            models_used += 1
        return models_used / len(self.devices)


def hls_uplift_scenario(
    fpga: ComputeDevice, improved_efficiency: float = 0.8,
    improved_effort_pm: float = 3.0,
) -> ComputeDevice:
    """Recommendation 6's what-if: better FPGA tools.

    Returns a copy of ``fpga`` whose portable (HLS) efficiency rises to
    ``improved_efficiency`` and whose port effort drops to
    ``improved_effort_pm`` person-months.
    """
    from dataclasses import replace

    if not 0.0 < improved_efficiency <= 1.0:
        raise ModelError("improved efficiency must be in (0, 1]")
    better = replace(
        fpga.programmability,
        port_effort_person_months=improved_effort_pm,
        portable_efficiency=improved_efficiency,
    )
    return replace(fpga, programmability=better)
