"""Flow-level bandwidth allocation and transfer-time simulation.

The shuffle and disaggregation experiments need "how long does this set
of bulk transfers take", not per-packet detail. This module provides:

- :func:`max_min_fair_rates`: progressive-filling max-min fair allocation
  of concurrent flows over a fabric (reference implementation, pure
  Python, unchanged semantics).
- :class:`FlowSimulator`: event-driven completion of a static flow set,
  re-solving rates as flows finish (the standard flow-level DC model).
  The simulator uses a vectorized incremental solver: link capacities
  are cached per fabric, the link x flow incidence matrix is built once
  per run, and flows enter/leave via boolean masks, so each re-solve is
  a handful of numpy operations instead of a Python scan over every
  link and flow.
- :class:`IncrementalMaxMinSolver`: a persistent allocation over a
  *faultable* fabric. Where the naive approach reroutes every flow and
  re-solves the whole fabric each time a fault bumps
  :attr:`Fabric.state_version`, this solver repairs only the pairs
  whose ECMP path set the fault actually changed and re-solves only the
  connected component of flows sharing links with the rerouted ones --
  bit-for-bit equal to the full solve, because max-min components solve
  independently with identical arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

import networkx as nx
import numpy as np

from repro.engine import Observability
from repro.errors import TopologyError
from repro.network.routing import ecmp_path_for_flow, ecmp_paths, path_links
from repro.network.topology import Fabric


def _fabric_link_capacities(fabric: Fabric) -> Dict[Tuple[str, str], float]:
    """Capacity in bytes/s per canonical *up* link key, cached on the fabric.

    The cache is stashed on the fabric instance and keyed on
    :attr:`Fabric.state_version`, which every structural edit
    (``add_link`` / ``remove_link`` / ``remove_node``) and every up/down
    change bumps. Links that are currently down carry no entry, so a flow
    whose pre-assigned path crosses one fails loudly instead of
    transferring over a dead link. Editing a link *rate* in place moves
    no version and is invisible; call
    :func:`invalidate_link_capacity_cache` after such a mutation.
    """
    version = fabric.state_version
    cache = getattr(fabric, "_repro_capacity_cache", None)
    if cache is not None and cache[0] == version:
        return cache[1]
    caps = {
        (a, b) if a <= b else (b, a): data["rate_gbps"] * 1e9 / 8.0
        for a, b, data in fabric.active_graph().edges(data=True)
    }
    fabric._repro_capacity_cache = (version, caps)
    return caps


def invalidate_link_capacity_cache(fabric: Fabric) -> None:
    """Drop capacity-derived caches after an in-place rate edit.

    An in-place ``rate_gbps`` edit does not move the state version, so
    the capacity table would silently keep the old rate. The cached
    active-graph view goes too, so the next lookup rebuilds both from
    the live graph.
    """
    if hasattr(fabric, "_repro_capacity_cache"):
        del fabric._repro_capacity_cache
    if hasattr(fabric, "_active_cache"):
        del fabric._active_cache


@dataclass
class Flow:
    """One bulk transfer.

    ``path`` is filled in by the simulator (ECMP) unless provided.
    """

    flow_id: int
    src: str
    dst: str
    size_bytes: float
    start_s: float = 0.0
    path: Optional[List[str]] = None
    finish_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise TopologyError(f"flow {self.flow_id}: size must be positive")
        if self.start_s < 0:
            raise TopologyError(f"flow {self.flow_id}: negative start")


def max_min_fair_rates(
    fabric: Fabric, flows: List[Flow]
) -> Dict[int, float]:
    """Max-min fair rates (bytes/s) via progressive filling.

    Each flow follows its (already-assigned) path; link capacity is the
    link rate in bytes/s. Classic algorithm: repeatedly find the most
    constrained link, freeze its flows at the fair share, remove, repeat.
    """
    active: Dict[int, Flow] = {}
    for flow in flows:
        if flow.path is None:
            raise TopologyError(f"flow {flow.flow_id}: path not assigned")
        active[flow.flow_id] = flow

    remaining_capacity: Dict[Tuple[str, str], float] = {}
    link_flows: Dict[Tuple[str, str], set] = {}
    for flow in active.values():
        for link in path_links(flow.path):
            if link not in remaining_capacity:
                a, b = link
                remaining_capacity[link] = fabric.link_rate_gbps(a, b) * 1e9 / 8.0
                link_flows[link] = set()
            link_flows[link].add(flow.flow_id)

    rates: Dict[int, float] = {}
    unfrozen = set(active)
    while unfrozen:
        # Fair share each link could give its unfrozen flows.
        best_link, best_share = None, float("inf")
        for link, members in link_flows.items():
            live = members & unfrozen
            if not live:
                continue
            share = remaining_capacity[link] / len(live)
            if share < best_share:
                best_link, best_share = link, share
        if best_link is None:
            # Flows whose links all vanished (shouldn't happen) get inf.
            for fid in unfrozen:
                rates[fid] = float("inf")
            break
        # Freeze the bottleneck link's flows at the fair share.
        for fid in sorted(link_flows[best_link] & unfrozen):
            rates[fid] = best_share
            unfrozen.discard(fid)
            for link in path_links(active[fid].path):
                remaining_capacity[link] -= best_share
                # Numerical guard.
                if remaining_capacity[link] < 0:
                    remaining_capacity[link] = 0.0
    return rates


class IncrementalMaxMinSolver:
    """Max-min fair allocation repaired incrementally under fabric faults.

    Holds a static flow set routed (ECMP) over a live
    :class:`~repro.network.topology.Fabric` and keeps
    :attr:`allocations` -- ``{flow_id: rate_bytes_per_s}`` -- equal,
    bit for bit, to what a from-scratch reroute-everything +
    :func:`max_min_fair_rates` solve would produce after every fault.

    Mutate the fabric *through the solver* (:meth:`fail_link`,
    :meth:`restore_link`, :meth:`fail_node`, :meth:`restore_node`): the
    solver applies the fabric mutation, then repairs only the pairs
    whose ECMP path set actually changed and re-solves only the flows
    sharing links (transitively) with the rerouted ones. Equality with
    the full solve rests on two invariants:

    - a flow's ECMP path set changes only if the failed element lies on
      one of its equal-cost paths (failing: removal cannot create
      shortest paths) or the restored link offers a path no longer than
      the current shortest (restoring: any new shortest path must cross
      the new link);
    - progressive filling decomposes over connected components of the
      flow/link sharing graph: a component's freeze order, fair shares
      and capacity subtractions involve only its own links, so solving
      an affected component's flows alone (in input order) replays the
      full solve's arithmetic exactly.

    Full-solve fallbacks (counted in :attr:`full_solves`): construction,
    :meth:`restore_node` (which resurrects an unknown subset of links),
    and any externally bumped :attr:`Fabric.state_version` detected at
    the next mutation (the same staleness protocol the capacity cache
    uses). Everything else is an incremental repair (counted in
    :attr:`incremental_repairs`).

    Inside an ambient :class:`~repro.engine.Observability` scope both
    counters are mirrored into ``flows.incremental.full_solves`` and
    ``flows.incremental.repairs``, so instrumented runs
    (``python -m repro trace``) report the repair/fallback split.
    """

    def __init__(self, fabric: Fabric, flows: List[Flow]) -> None:
        self.fabric = fabric
        self.flows = list(flows)
        self._flows_by_id: Dict[int, Flow] = {}
        for flow in self.flows:
            if flow.flow_id in self._flows_by_id:
                raise TopologyError(f"duplicate flow id {flow.flow_id}")
            self._flows_by_id[flow.flow_id] = flow
        self.allocations: Dict[int, float] = {}
        self.full_solves = 0
        self.incremental_repairs = 0
        self._full_solve()

    # -- fabric mutations ----------------------------------------------------

    def fail_link(self, a: str, b: str) -> None:
        """Fail the ``a``--``b`` link and repair the affected flows."""
        self._ensure_synced()
        before = self.fabric.state_version
        self.fabric.fail_link(a, b)
        if self.fabric.state_version == before:  # idempotent re-fail
            return
        # Removal cannot create equal-cost paths, so only pairs with the
        # link on one of their cached ECMP paths can change.
        dirty = set(self._link_pairs.get(Fabric.link_key(a, b), ()))
        self._repair(dirty)

    def restore_link(self, a: str, b: str) -> None:
        """Restore the ``a``--``b`` link and repair the affected flows."""
        self._ensure_synced()
        before = self.fabric.state_version
        self.fabric.restore_link(a, b)
        if self.fabric.state_version == before:  # idempotent re-restore
            return
        if not self.fabric.link_is_up(a, b):
            # An endpoint is still down: the active topology is
            # unchanged, only the version moved.
            self._version = self.fabric.state_version
            self._count("repairs")
            return
        self._repair(self._pairs_reached_by(a, b))

    def fail_node(self, node: str) -> None:
        """Fail ``node`` (and implicitly its links); repair affected flows."""
        self._ensure_synced()
        before = self.fabric.state_version
        self.fabric.fail_node(node)
        if self.fabric.state_version == before:
            return
        dirty = set(self._node_pairs.get(node, ()))
        self._repair(dirty)

    def restore_node(self, node: str) -> None:
        """Restore ``node``; falls back to a full solve.

        A node restore resurrects every one of its links that is not
        independently failed, which can shorten paths between arbitrary
        pairs; the bounded-impact argument the link events use does not
        apply, so this is a (counted) full-solve fallback.
        """
        self._ensure_synced()
        before = self.fabric.state_version
        self.fabric.restore_node(node)
        if self.fabric.state_version == before:
            return
        self._full_solve()

    # -- internals -----------------------------------------------------------

    def _ensure_synced(self) -> None:
        if self._version != self.fabric.state_version:
            self._full_solve()

    def _count(self, kind: str) -> None:
        """Bump the local counter and (if observed) its registry mirror."""
        if kind == "full_solves":
            self.full_solves += 1
        else:
            self.incremental_repairs += 1
        observability = Observability.current()
        if observability is not None:
            observability.registry.counter(f"flows.incremental.{kind}").inc()

    def _full_solve(self) -> None:
        fabric = self.fabric
        self._pair_paths: Dict[Tuple[str, str], List[List[str]]] = {}
        self._pair_flows: Dict[Tuple[str, str], List[int]] = {}
        self._link_pairs: Dict[Tuple[str, str], Set[Tuple[str, str]]] = {}
        self._node_pairs: Dict[str, Set[Tuple[str, str]]] = {}
        self._link_flows: Dict[Tuple[str, str], Set[int]] = {}
        for flow in self.flows:
            pair = (flow.src, flow.dst)
            paths = self._pair_paths.get(pair)
            if paths is None:
                paths = ecmp_paths(fabric, flow.src, flow.dst)
                self._pair_paths[pair] = paths
                self._pair_flows[pair] = []
                self._register_pair(pair, paths)
            self._pair_flows[pair].append(flow.flow_id)
            flow.path = paths[flow.flow_id % len(paths)]
            for link in path_links(flow.path):
                self._link_flows.setdefault(link, set()).add(flow.flow_id)
        self.allocations = max_min_fair_rates(fabric, self.flows)
        self._version = fabric.state_version
        self._count("full_solves")

    def _register_pair(
        self, pair: Tuple[str, str], paths: List[List[str]]
    ) -> None:
        for path in paths:
            for link in path_links(path):
                self._link_pairs.setdefault(link, set()).add(pair)
            for node in path:
                self._node_pairs.setdefault(node, set()).add(pair)

    def _unregister_pair(
        self, pair: Tuple[str, str], paths: List[List[str]]
    ) -> None:
        for path in paths:
            for link in path_links(path):
                members = self._link_pairs.get(link)
                if members is not None:
                    members.discard(pair)
            for node in path:
                members = self._node_pairs.get(node)
                if members is not None:
                    members.discard(pair)

    def _pairs_reached_by(self, a: str, b: str) -> Set[Tuple[str, str]]:
        """Pairs whose ECMP set the restored ``a``--``b`` link changes.

        Any shortest path that is new since the restore must cross the
        restored link, so a pair is affected iff the best path *via*
        the link is no longer than its current shortest path. Two BFS
        sweeps answer that for every tracked pair at once.
        """
        graph = self.fabric.active_graph()
        dist_a = nx.single_source_shortest_path_length(graph, a)
        dist_b = nx.single_source_shortest_path_length(graph, b)
        inf = float("inf")
        dirty: Set[Tuple[str, str]] = set()
        for pair, paths in self._pair_paths.items():
            s, t = pair
            current = len(paths[0]) - 1
            via = 1 + min(
                dist_a.get(s, inf) + dist_b.get(t, inf),
                dist_b.get(s, inf) + dist_a.get(t, inf),
            )
            if via <= current:
                dirty.add(pair)
        return dirty

    def _repair(self, dirty_pairs: Set[Tuple[str, str]]) -> None:
        fabric = self.fabric
        link_flows = self._link_flows
        seeds: Set[Tuple[str, str]] = set()
        for pair in sorted(dirty_pairs):
            old_paths = self._pair_paths[pair]
            new_paths = ecmp_paths(fabric, pair[0], pair[1])
            if new_paths == old_paths:
                continue
            self._unregister_pair(pair, old_paths)
            self._register_pair(pair, new_paths)
            self._pair_paths[pair] = new_paths
            n_paths = len(new_paths)
            for fid in self._pair_flows[pair]:
                flow = self._flows_by_id[fid]
                new_path = new_paths[fid % n_paths]
                if new_path == flow.path:
                    continue
                old_links = path_links(flow.path)
                new_links = path_links(new_path)
                seeds.update(old_links)
                seeds.update(new_links)
                for link in old_links:
                    members = link_flows.get(link)
                    if members is not None:
                        members.discard(fid)
                for link in new_links:
                    link_flows.setdefault(link, set()).add(fid)
                flow.path = new_path
        if seeds:
            affected = self._affected_closure(seeds)
            subset = [f for f in self.flows if f.flow_id in affected]
            self.allocations.update(max_min_fair_rates(fabric, subset))
        self._count("repairs")
        self._version = fabric.state_version

    def _affected_closure(self, seeds: Set[Tuple[str, str]]) -> Set[int]:
        """Flows sharing links (transitively) with the seed link set.

        Seeds are the union of every rerouted flow's old and new path
        links, so both the component a flow left and the one it joined
        are re-solved; untouched components keep their rates, which the
        full solve would reproduce bit for bit anyway.
        """
        link_flows = self._link_flows
        flows_by_id = self._flows_by_id
        affected: Set[int] = set()
        visited = set(seeds)
        stack = list(seeds)
        while stack:
            link = stack.pop()
            for fid in link_flows.get(link, ()):
                if fid in affected:
                    continue
                affected.add(fid)
                for nxt in path_links(flows_by_id[fid].path):
                    if nxt not in visited:
                        visited.add(nxt)
                        stack.append(nxt)
        return affected


@dataclass
class FlowSimulator:
    """Completes a flow set under repeatedly re-solved max-min sharing."""

    fabric: Fabric
    assign_paths: bool = True

    def run(self, flows: List[Flow]) -> List[Flow]:
        """Simulate all flows to completion; returns them with finish times.

        Events are flow arrivals and completions; between events, rates
        are constant at the max-min solution for the active set. The
        incidence matrix over every flow's path is built once up front;
        per event only the active mask changes and the solve is fully
        vectorized.
        """
        if not flows:
            return []
        for flow in flows:
            if self.assign_paths and flow.path is None:
                flow.path = ecmp_path_for_flow(
                    self.fabric, flow.src, flow.dst, flow.flow_id
                )
            elif flow.path is None:
                raise TopologyError(
                    f"flow {flow.flow_id}: no path and path assignment disabled"
                )

        pending = sorted(flows, key=lambda f: (f.start_s, f.flow_id))
        n = len(pending)

        caps_by_link = _fabric_link_capacities(self.fabric)

        # Link universe across all paths, and per-flow link indices.
        link_index: Dict[Tuple[str, str], int] = {}
        per_flow_links: List[List[int]] = []
        for flow in pending:
            idxs = []
            for link in path_links(flow.path):
                pos = link_index.get(link)
                if pos is None:
                    if link not in caps_by_link:
                        raise TopologyError(f"no link {link[0]}--{link[1]}")
                    pos = link_index[link] = len(link_index)
                idxs.append(pos)
            per_flow_links.append(idxs)
        n_links = len(link_index)

        caps = np.empty(n_links, dtype=np.float64)
        for link, pos in link_index.items():
            caps[pos] = caps_by_link[link]

        # Dense flow x link incidence, built once. Flows enter and leave
        # the solve via the ``active`` mask; the matrix never changes.
        incidence = np.zeros((n, n_links), dtype=np.float64)
        for row, idxs in enumerate(per_flow_links):
            incidence[row, idxs] = 1.0
        on_link = incidence.astype(bool)

        active = np.zeros(n, dtype=bool)
        remaining = np.zeros(n, dtype=np.float64)
        rates = np.zeros(n, dtype=np.float64)

        now = 0.0
        next_arrival = 0
        n_active = 0

        while next_arrival < n or n_active:
            # Admit arrivals due now (jump the clock if the fabric idles).
            while next_arrival < n and (
                n_active == 0 or pending[next_arrival].start_s <= now
            ):
                flow = pending[next_arrival]
                if flow.start_s > now:
                    now = flow.start_s
                active[next_arrival] = True
                remaining[next_arrival] = flow.size_bytes
                next_arrival += 1
                n_active += 1

            _progressive_fill(active, incidence, on_link, caps, rates)

            act = np.nonzero(active)[0]
            act_rates = rates[act]
            starved = act[act_rates == 0.0]
            if starved.size:
                flow = pending[int(starved[0])]
                raise TopologyError(
                    f"flow {flow.flow_id}: max-min rate is zero "
                    f"({flow.src}->{flow.dst} crosses a zero-capacity "
                    "link), so the transfer would never finish"
                )

            # Time to the next completion at current rates; an infinite
            # rate (a path with no links) completes instantly.
            deliverable = remaining[act]
            time_to_finish = float(np.min(deliverable / act_rates))
            horizon = time_to_finish
            if next_arrival < n:
                horizon = min(horizon, pending[next_arrival].start_s - now)
            horizon = max(horizon, 0.0)

            # Advance.
            delta = act_rates * horizon
            infinite = np.isinf(act_rates)
            if infinite.any():
                delta = np.where(infinite, deliverable, delta)
            rem_act = deliverable - delta
            remaining[act] = rem_act
            now += horizon

            # Retire finished flows (tolerance for float error).
            finished = act[rem_act <= 1e-6]
            for pos in finished:
                pending[int(pos)].finish_s = now
            active[finished] = False
            n_active -= int(finished.size)
        return flows


def _progressive_fill(
    active: "np.ndarray",
    incidence: "np.ndarray",
    on_link: "np.ndarray",
    caps: "np.ndarray",
    rates: "np.ndarray",
) -> None:
    """Vectorized progressive filling over the ``active`` flow subset.

    Writes max-min fair rates (bytes/s) for active flows into ``rates``
    in place. Same algorithm as :func:`max_min_fair_rates`: repeatedly
    find the most constrained link, freeze its flows at the fair share,
    subtract, repeat. Exact float-tie bottleneck ordering may differ
    from the reference scan, but the max-min allocation is unique, so
    rates agree to rounding.
    """
    rates[:] = 0.0
    n_unfrozen = int(active.sum())
    if n_unfrozen == 0:
        return
    unfrozen = active.copy()
    cap = caps.astype(np.float64, copy=True)
    # Live (unfrozen) flow count per link; matmul once, then update
    # incrementally as flows freeze.
    nlive = unfrozen.astype(np.float64) @ incidence
    shares = np.empty_like(cap)
    inf = np.inf
    while True:
        shares.fill(inf)
        np.divide(cap, nlive, out=shares, where=nlive > 0.5)
        share = float(shares[int(shares.argmin())])
        if share == inf:
            # Flows whose paths cross no live link (shouldn't happen on a
            # connected fabric) are unconstrained.
            rates[unfrozen] = inf
            return
        # Freeze every link exactly tied at the bottleneck share in one
        # round: as one tied link's flows freeze at share s, a tied
        # peer's fair share stays (c - k*s)/(n - k) = s, so the batch is
        # equivalent to freezing them one at a time.
        members = unfrozen & on_link[:, shares == share].any(axis=1)
        rates[members] = share
        n_unfrozen -= int(members.sum())
        unfrozen ^= members
        counts = members.astype(np.float64) @ incidence
        cap -= share * counts
        np.maximum(cap, 0.0, out=cap)
        if n_unfrozen == 0:
            return
        nlive -= counts


def transfer_time_s(
    fabric: Fabric, src: str, dst: str, size_bytes: float
) -> float:
    """Completion time of a single flow on an otherwise idle fabric."""
    flow = Flow(0, src, dst, size_bytes)
    FlowSimulator(fabric).run([flow])
    if flow.finish_s is None:
        raise TopologyError(
            f"flow {flow.flow_id} ({src}->{dst}) has no finish time; "
            "the solver returned without completing it"
        )
    return flow.finish_s
