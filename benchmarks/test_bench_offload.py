"""E11 -- R10: accelerated building blocks inside a framework.

Regenerates the end-to-end pipeline comparison: the same dataflow plans
run under cpu-only vs greedy offload policies on an FPGA-equipped
cluster, with identical results and lower simulated time. Includes the
flow-vs-analytic shuffle ablation. The headline pipeline asserts over
the registered E11 entrypoint (``python -m repro run E11``).
"""

from repro import units
from repro.cluster import uniform_cluster
from repro.frameworks import (
    BatchExecutor,
    PartitionedDataset,
    Plan,
    greedy_time,
)
from repro.network import Flow, FlowSimulator, fat_tree, leaf_spine
from repro.node import accelerated_server, arria10_fpga, xeon_e5
from repro.reporting import render_table
from repro.runner import run_experiment
from repro.workloads import zipf_documents


def _cluster():
    return uniform_cluster(
        leaf_spine(2, 2, 2),
        lambda: accelerated_server(xeon_e5(), arria10_fpga()),
    )


def _log_pipeline() -> Plan:
    return (
        Plan.source()
        .map(lambda s: s, block="regex-extract", label="extract")
        .filter(lambda s: "data" in s, block="filter-scan", label="select")
        .map(lambda s: (s.split()[0], 1), block="filter-scan", label="pair")
        .reduce_by_key(lambda kv: kv[0], lambda a, b: (a[0], a[1] + b[1]),
                       label="aggregate")
    )


def test_bench_offload_pipeline(benchmark):
    result = benchmark(run_experiment, "E11")
    assert result.ok, result.error
    metrics = result.metrics
    rows = [
        ["cpu-only", metrics["sim_time_s.cpu_only"],
         metrics["energy_j.cpu_only"]],
        ["greedy-offload", metrics["sim_time_s.greedy_time"],
         metrics["energy_j.greedy_time"]],
        ["gain", metrics["gain"],
         metrics["energy_j.cpu_only"] / metrics["energy_j.greedy_time"]],
    ]
    print()
    print(render_table(
        ["policy", "sim time (s)", "energy (J)"], rows,
        title="E11: log-analytics pipeline with accelerated blocks",
    ))
    assert metrics["records_match"]
    assert metrics["sim_time_s.greedy_time"] < metrics["sim_time_s.cpu_only"]


def test_bench_offload_per_stage_accounting(benchmark):
    cluster = _cluster()
    docs = zipf_documents(4_000, 40, seed=3)
    dataset = PartitionedDataset.from_records(docs, 8, record_bytes=240)
    executor = BatchExecutor(cluster, policy=greedy_time())
    result = benchmark(executor.run, _log_pipeline(), dataset)
    rows = [
        [s.stage_index, "+".join(s.operator_labels), s.compute_time_s,
         s.shuffle_time_s]
        for s in result.stages
    ]
    print()
    print(render_table(
        ["stage", "operators", "compute (s)", "shuffle (s)"], rows,
        title="E11: per-stage time breakdown",
    ))
    assert result.stages[0].shuffle_time_s > 0  # the wide op shuffles


def test_bench_flow_vs_packet_ablation(benchmark):
    """DESIGN.md ablation: flow-level vs packet-level transport models.

    A single bulk transfer should take the same time under both models
    up to per-packet overheads; small-message latency, by contrast, only
    exists in the packet model. This justifies using the cheap flow
    model for shuffles (E11) and the packet model for tails (E2).
    """
    from repro.engine import Simulator
    from repro.network import PacketNetwork, transfer_time_s

    fabric = leaf_spine(2, 2, 2)
    size = 20 * units.MB
    packet_bytes = 1_500.0

    def packet_level():
        sim = Simulator()
        net = PacketNetwork(sim, fabric, hop_delay_s=0.5e-6)
        n_packets = int(size // packet_bytes)
        records = [
            net.send(i, "host0-0", "host1-0", packet_bytes,
                     path=None)
            for i in range(n_packets)
        ]
        sim.run()
        return sim.now, n_packets

    packet_time, n_packets = benchmark(packet_level)
    flow_time = transfer_time_s(fabric, "host0-0", "host1-0", size)
    ratio = packet_time / flow_time
    print(f"\nflow-level: {flow_time:.4f}s, packet-level: {packet_time:.4f}s "
          f"({n_packets} packets), ratio {ratio:.3f}")
    # Bulk transfers: the models agree almost exactly (serialization
    # dominates; hop delays are sub-permille at this size).
    assert 0.9 < ratio < 1.1


def test_bench_shuffle_model_ablation(benchmark):
    """Analytic shuffle model vs flow-level simulation on a fat-tree."""
    fabric = fat_tree(4)
    hosts = fabric.hosts
    per_pair_bytes = 50 * units.MB

    def flow_level():
        flows = []
        fid = 0
        for src in hosts[:8]:
            for dst in hosts[:8]:
                if src != dst:
                    flows.append(Flow(fid, src, dst, per_pair_bytes))
                    fid += 1
        FlowSimulator(fabric).run(flows)
        return max(f.finish_s for f in flows)

    flow_time = benchmark(flow_level)
    from repro.frameworks import ShuffleSpec, shuffle_time_s

    total_bytes = per_pair_bytes * 8 * 8  # incl. local pairs, model's basis
    analytic_time = shuffle_time_s(ShuffleSpec(total_bytes, 8, 10.0))
    ratio = flow_time / analytic_time
    print(f"\nflow-level: {flow_time:.3f}s, analytic: {analytic_time:.3f}s, "
          f"ratio {ratio:.2f}")
    # The analytic model assumes full-duplex NICs; the flow simulator's
    # undirected links are half-duplex (ingress and egress share each
    # access link), so a clean all-to-all lands at ~2x the analytic time.
    assert 1.5 < ratio < 2.5
