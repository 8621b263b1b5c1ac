"""Load-balanced path assignment: ECMP hashing vs least-loaded selection.

ECMP hashes flows onto equal-cost paths obliviously; elephant flows
collide and hot links emerge while parallel paths idle -- the classic
datacenter pathology SDN-era schedulers (Hedera et al.) fixed by placing
large flows on the currently-least-loaded path. Both assigners share the
ECMP path set, so the comparison isolates the *selection* policy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.engine import Observability
from repro.errors import TopologyError
from repro.network.flows import Flow, FlowSimulator
from repro.network.routing import ecmp_paths, path_links
from repro.network.topology import Fabric


def assign_paths_ecmp(fabric: Fabric, flows: List[Flow]) -> None:
    """Hash-based oblivious assignment (the baseline)."""
    for flow in flows:
        paths = ecmp_paths(fabric, flow.src, flow.dst)
        flow.path = paths[flow.flow_id % len(paths)]


def assign_paths_least_loaded(fabric: Fabric, flows: List[Flow]) -> None:
    """Greedy congestion-aware assignment.

    Flows are placed largest-first; each takes the candidate path with
    the lexicographically smallest descending load vector -- i.e. the
    least-loaded bottleneck, with ties (such as shared access links)
    broken by the next-most-loaded link, so same-pair flows still spread
    across spines.
    """
    load: Dict[Tuple[str, str], float] = {}
    for flow in sorted(flows, key=lambda f: (-f.size_bytes, f.flow_id)):
        paths = ecmp_paths(fabric, flow.src, flow.dst)
        best_path, best_cost = None, None
        for path in paths:
            cost = tuple(
                sorted(
                    (load.get(link, 0.0) for link in path_links(path)),
                    reverse=True,
                )
            )
            if best_cost is None or cost < best_cost:
                best_path, best_cost = path, cost
        assert best_path is not None
        flow.path = best_path
        for link in path_links(best_path):
            load[link] = load.get(link, 0.0) + flow.size_bytes


def link_load_bytes(fabric: Fabric, flows: List[Flow]) -> Dict[Tuple[str, str], float]:
    """Bytes assigned per link for a path-assigned flow set."""
    load: Dict[Tuple[str, str], float] = {}
    for flow in flows:
        if flow.path is None:
            raise TopologyError(f"flow {flow.flow_id}: path not assigned")
        for link in path_links(flow.path):
            load[link] = load.get(link, 0.0) + flow.size_bytes
    return load


def load_imbalance(fabric: Fabric, flows: List[Flow]) -> float:
    """Max link load divided by mean link load (1.0 = perfectly even).

    Only counts links that carry at least one flow.
    """
    load = link_load_bytes(fabric, flows)
    if not load:
        raise TopologyError("no loaded links")
    values = list(load.values())
    return max(values) / (sum(values) / len(values))


@dataclass
class AssignmentComparison:
    """Completion-time and balance comparison of the two assigners."""

    ecmp_completion_s: float
    least_loaded_completion_s: float
    ecmp_imbalance: float
    least_loaded_imbalance: float

    @property
    def speedup(self) -> float:
        """How much faster the congestion-aware assignment finishes."""
        return self.ecmp_completion_s / self.least_loaded_completion_s


def _record_flows(
    observability: Optional[Observability],
    flows: List[Flow],
    imbalance: float,
    policy: str,
) -> None:
    """Publish per-flow spans and balance gauges for one assigner run."""
    if observability is None:
        return
    last_finish = 0.0
    for flow in flows:
        finish = flow.finish_s if flow.finish_s is not None else flow.start_s
        last_finish = max(last_finish, finish)
        observability.spans.record(
            f"flow.{policy}",
            flow.start_s,
            finish,
            tags={
                "subsystem": "network.loadbalance",
                "flow": str(flow.flow_id),
                "src": flow.src,
                "dst": flow.dst,
                "policy": policy,
            },
        )
        observability.registry.histogram(f"loadbalance.fct_s.{policy}").observe(
            max(finish - flow.start_s, 1e-12)
        )
    registry = observability.registry
    registry.counter(f"loadbalance.flows.{policy}").inc(len(flows))
    registry.gauge(f"loadbalance.imbalance.{policy}").set(
        last_finish, imbalance
    )


def compare_assignment_policies(
    fabric: Fabric,
    flow_specs: List[Tuple[str, str, float]],
) -> AssignmentComparison:
    """Run the same flow set under both assigners.

    ``flow_specs`` is a list of (src, dst, size_bytes). Inside an
    ambient :class:`~repro.engine.Observability` scope, each run emits
    one span per flow plus flow-completion-time histograms and
    imbalance gauges, keyed by policy.
    """
    if not flow_specs:
        raise TopologyError("need at least one flow")
    observability = Observability.current()

    def build() -> List[Flow]:
        return [
            Flow(fid, src, dst, size)
            for fid, (src, dst, size) in enumerate(flow_specs)
        ]

    ecmp_flows = build()
    assign_paths_ecmp(fabric, ecmp_flows)
    ecmp_imbalance = load_imbalance(fabric, ecmp_flows)
    FlowSimulator(fabric, assign_paths=False).run(ecmp_flows)
    _record_flows(observability, ecmp_flows, ecmp_imbalance, "ecmp")

    ll_flows = build()
    assign_paths_least_loaded(fabric, ll_flows)
    ll_imbalance = load_imbalance(fabric, ll_flows)
    FlowSimulator(fabric, assign_paths=False).run(ll_flows)
    _record_flows(observability, ll_flows, ll_imbalance, "least_loaded")

    return AssignmentComparison(
        ecmp_completion_s=max(f.finish_s for f in ecmp_flows),
        least_loaded_completion_s=max(f.finish_s for f in ll_flows),
        ecmp_imbalance=ecmp_imbalance,
        least_loaded_imbalance=ll_imbalance,
    )
