"""Tests for the incremental max-min solver and capacity-cache hygiene.

The headline property: after *every* fault-schedule mutation, the
incremental solver's allocations and flow paths are bit-for-bit equal to
the frozen full solve in :mod:`repro._perfref` (reassign every flow's
ECMP path, progressive-fill from scratch). Mutations that disconnect a
flow's endpoints must raise :class:`TopologyError` on both sides.
"""

import random

import pytest

from repro import _perfref
from repro.errors import TopologyError
from repro.network import (
    Flow,
    IncrementalMaxMinSolver,
    fat_tree,
    invalidate_link_capacity_cache,
    leaf_spine,
    single_switch_failure_impact,
)
from repro.network.flows import _fabric_link_capacities
from repro.network.routing import ecmp_path_for_flow


def _seeded_flows(fabric, seed, n):
    """The same flow population on any structurally identical fabric."""
    rng = random.Random(seed)
    hosts = fabric.hosts
    flows = []
    for i in range(n):
        src, dst = rng.sample(hosts, 2)
        flows.append(Flow(i, src, dst, size_bytes=(1 + rng.random()) * 1e9))
    return flows


def _reference_state(fabric, flows):
    """Frozen full solve: reroute every flow, progressive-fill from scratch."""
    for flow in flows:
        flow.path = ecmp_path_for_flow(fabric, flow.src, flow.dst, flow.flow_id)
    rates = _perfref.reference_max_min_fair_rates(fabric, flows)
    return rates, {flow.flow_id: flow.path for flow in flows}


class TestIncrementalSolverUnit:
    def _solver(self, n_flows=12):
        fabric = fat_tree(4)
        flows = _seeded_flows(fabric, 42, n_flows)
        return fabric, flows, IncrementalMaxMinSolver(fabric, flows)

    def test_construction_matches_reference_full_solve(self):
        fabric, flows, solver = self._solver()
        mirror = fat_tree(4)
        expected_rates, expected_paths = _reference_state(
            mirror, _seeded_flows(mirror, 42, 12)
        )
        assert solver.allocations == expected_rates
        assert {f.flow_id: f.path for f in flows} == expected_paths
        assert solver.full_solves == 1
        assert solver.incremental_repairs == 0

    def test_duplicate_flow_ids_rejected(self):
        fabric = fat_tree(4)
        flows = _seeded_flows(fabric, 1, 2)
        flows[1].flow_id = flows[0].flow_id
        with pytest.raises(TopologyError, match="duplicate flow id"):
            IncrementalMaxMinSolver(fabric, flows)

    def test_idempotent_refail_is_a_noop(self):
        fabric, flows, solver = self._solver()
        solver.fail_link("agg0-0", "core0-0")
        repairs = solver.incremental_repairs
        allocations = dict(solver.allocations)
        solver.fail_link("agg0-0", "core0-0")  # already down: no version bump
        assert solver.incremental_repairs == repairs
        assert solver.full_solves == 1
        assert solver.allocations == allocations

    def test_link_fault_cycle_is_incremental(self):
        fabric, flows, solver = self._solver()
        solver.fail_link("agg0-0", "core0-0")
        solver.restore_link("agg0-0", "core0-0")
        assert solver.full_solves == 1
        assert solver.incremental_repairs == 2
        mirror = fat_tree(4)
        expected_rates, _ = _reference_state(
            mirror, _seeded_flows(mirror, 42, 12)
        )
        assert solver.allocations == expected_rates

    def test_restore_node_falls_back_to_full_solve(self):
        fabric, flows, solver = self._solver()
        solver.fail_node("agg1-1")
        assert solver.full_solves == 1
        assert solver.incremental_repairs == 1
        solver.restore_node("agg1-1")
        assert solver.full_solves == 2
        mirror = fat_tree(4)
        expected_rates, _ = _reference_state(
            mirror, _seeded_flows(mirror, 42, 12)
        )
        assert solver.allocations == expected_rates

    def test_restore_link_with_endpoint_down_keeps_allocations(self):
        fabric, flows, solver = self._solver()
        solver.fail_link("agg0-0", "core0-0")
        solver.fail_node("agg0-0")
        before = dict(solver.allocations)
        repairs = solver.incremental_repairs
        # The link comes back up administratively, but its endpoint is
        # still down: the active topology is unchanged.
        solver.restore_link("agg0-0", "core0-0")
        assert solver.allocations == before
        assert solver.incremental_repairs == repairs + 1
        assert solver.full_solves == 1
        # And the solver is *synced*, not stale: the next mutation must
        # not trigger a fallback full solve.
        solver.restore_node("agg0-0")  # counted full solve by design
        assert solver.full_solves == 2


def _propose_mutation(rng, fabric, switch_links, down_links, down_nodes):
    """Pick the next schedule entry: mostly faults, some restores."""
    roll = rng.random()
    if down_links and roll < 0.25:
        return "restore_link", down_links[0]
    if down_nodes and roll < 0.40:
        return "restore_node", (down_nodes[0],)
    down_link_set = set(down_links)
    if roll < 0.80:
        up = [
            link for link in switch_links
            if link not in down_link_set
            and link[0] not in down_nodes and link[1] not in down_nodes
        ]
        if up:
            return "fail_link", rng.choice(up)
    switches = [s for s in fabric.switches if s not in down_nodes]
    return "fail_node", (rng.choice(switches),)


class TestIncrementalMatchesFullSolve:
    """Satellite: property-based randomized fault schedules, seeds 0-2.

    A mirror fabric replays every mutation and is fully re-solved with
    the frozen ``_perfref`` reference after each one; allocations and
    assigned paths must match bit for bit. Disconnecting mutations must
    raise on both sides and are undone before continuing.
    """

    N_FLOWS = 24
    N_MUTATIONS = 40

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_randomized_fault_schedule_bit_for_bit(self, seed):
        fabric = fat_tree(4)
        mirror = fat_tree(4)
        flows = _seeded_flows(fabric, 1000 + seed, self.N_FLOWS)
        mirror_flows = _seeded_flows(mirror, 1000 + seed, self.N_FLOWS)
        solver = IncrementalMaxMinSolver(fabric, flows)

        switch_set = set(fabric.switches)
        switch_links = sorted(
            fabric.link_key(a, b)
            for a, b in fabric.graph.edges
            if a in switch_set and b in switch_set
        )
        undo_of = {"fail_link": "restore_link", "fail_node": "restore_node"}

        rng = random.Random(seed)
        down_links, down_nodes = [], []
        disconnects = 0
        for _ in range(self.N_MUTATIONS):
            method, args = _propose_mutation(
                rng, fabric, switch_links, down_links, down_nodes
            )
            try:
                getattr(solver, method)(*args)
            except TopologyError:
                # The mutation stranded some flow; the full solve must
                # agree that the pair is unroutable.
                disconnects += 1
                getattr(mirror, method)(*args)
                with pytest.raises(TopologyError):
                    _reference_state(mirror, mirror_flows)
                getattr(fabric, undo_of[method])(*args)
                getattr(mirror, undo_of[method])(*args)
                solver._ensure_synced()
            else:
                getattr(mirror, method)(*args)
                if method == "fail_link":
                    down_links.append(args)
                elif method == "restore_link":
                    down_links.remove(args)
                elif method == "fail_node":
                    down_nodes.append(args[0])
                else:
                    down_nodes.remove(args[0])
            expected_rates, expected_paths = _reference_state(
                mirror, mirror_flows
            )
            assert solver.allocations == expected_rates
            assert {f.flow_id: f.path for f in flows} == expected_paths

        # The schedule must actually exercise the incremental path; the
        # full-solve count stays bounded by construction + fallbacks.
        assert solver.incremental_repairs > 0
        assert solver.full_solves >= 1
        assert solver.incremental_repairs > solver.full_solves


class TestCapacityCacheInvalidation:
    """Satellite: in-place rate edits must drop *both* derived caches."""

    def test_rate_edit_visible_after_invalidate_with_failures_cached(self):
        fabric = fat_tree(4)
        fabric.fail_link("agg0-0", "core0-0")
        fabric.active_graph()  # populate the active-topology cache
        key = fabric.link_key("host0-0-0", "tor0-0")
        before = _fabric_link_capacities(fabric)
        assert before[key] == 10.0 * 1e9 / 8.0
        fabric.graph.edges["host0-0-0", "tor0-0"]["rate_gbps"] = 25.0
        invalidate_link_capacity_cache(fabric)
        assert not hasattr(fabric, "_active_cache")
        assert not hasattr(fabric, "_repro_capacity_cache")
        after = _fabric_link_capacities(fabric)
        assert after[key] == 25.0 * 1e9 / 8.0

    def test_failure_impact_agrees_with_reference_after_edit(self):
        fabric = leaf_spine(2, 3, 2)
        fabric.active_graph()
        _fabric_link_capacities(fabric)
        for spine in ("spine0", "spine1"):
            fabric.graph.edges["leaf0", spine]["rate_gbps"] = 100.0
        invalidate_link_capacity_cache(fabric)
        assert (
            single_switch_failure_impact(fabric)
            == _perfref.reference_single_switch_failure_impact(fabric)
        )
