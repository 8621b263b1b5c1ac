"""Shuffle cost model.

A wide operator moves (nearly) the whole intermediate dataset across the
fabric in an all-to-all pattern. The analytic model here charges:

- per-host egress/ingress serialization at the NIC rate, and
- the fabric core at its bisection bandwidth divided by the
  oversubscription factor,

taking the max (the binding constraint). This matches flow-level
simulation for balanced all-to-alls at a tiny fraction of the cost, and
the ablation bench (E11) checks the agreement.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ModelError


@dataclass(frozen=True)
class ShuffleSpec:
    """One shuffle's inputs."""

    total_bytes: float
    n_hosts: int
    host_nic_gbps: float

    def __post_init__(self) -> None:
        if self.total_bytes < 0:
            raise ModelError("shuffle volume cannot be negative")
        if self.n_hosts < 1:
            raise ModelError("need at least one host")
        if self.host_nic_gbps <= 0:
            raise ModelError("NIC rate must be positive")


def shuffle_time_s(
    spec: ShuffleSpec,
    bisection_gbps: float = None,
    locality_fraction: float = 0.0,
) -> float:
    """Duration of a balanced all-to-all shuffle.

    ``locality_fraction`` is the share of data that stays host-local
    (hash partitioning keeps 1/n locally on average); ``bisection_gbps``
    caps the cross-fabric aggregate when provided.
    """
    if not 0.0 <= locality_fraction < 1.0:
        raise ModelError("locality fraction must be in [0, 1)")
    if spec.n_hosts == 1:
        return 0.0  # everything is local
    moved = spec.total_bytes * (1.0 - locality_fraction) * (
        (spec.n_hosts - 1) / spec.n_hosts
    )
    per_host_bytes = moved / spec.n_hosts
    nic_rate = spec.host_nic_gbps * 1e9 / 8.0
    nic_time = per_host_bytes / nic_rate  # egress (ingress is symmetric)
    if bisection_gbps is None:
        return nic_time
    if bisection_gbps <= 0:
        raise ModelError("bisection bandwidth must be positive")
    core_rate = bisection_gbps * 1e9 / 8.0
    core_time = moved / (2.0 * core_rate)  # half the traffic crosses the cut
    return max(nic_time, core_time)
