"""Ablation benches for the design choices DESIGN.md calls out.

These are not paper figures; they probe the sensitivity of the design
decisions the paper makes implicitly: synchronization granularity
(partition size / bucket size), coordinator batching policy, batch
compression, and CPU- vs GPU-side aggregation.
"""

import pytest

from repro.algorithms import OneBit
from repro.casync.decisions import DecisionMap, GradientDecision
from repro.cluster import ec2_v100_cluster
from repro.experiments import format_table
from repro.models import GradientSpec, ModelSpec
from repro.strategies import BytePS, CaSyncPS, CaSyncRing, RingAllreduce
from repro.training import simulate_iteration

MB = 1024 * 1024


def model_of(sizes, v100_s=0.01, name="ablation"):
    grads = tuple(GradientSpec(f"{name}.g{i}", int(s))
                  for i, s in enumerate(sizes))
    return ModelSpec(name=name, gradients=grads, batch_size=32,
                     batch_unit="images", v100_iteration_s=v100_s)


def test_partition_granularity(benchmark, report):
    """Sweep K for one 256MB gradient under CaSync-PS: too few partitions
    forfeit pipelining; the planner's choice should be near the sweet
    spot."""
    model = model_of([256 * MB])
    cluster = ec2_v100_cluster(8)
    algo = OneBit()

    strategy = CaSyncPS()
    name = model.gradients[0].name

    def run_sweep():
        rows = []
        for k in (1, 2, 4, 8, 16):
            decisions = DecisionMap(
                {name: GradientDecision(compress=True, partitions=k)})
            result = simulate_iteration(model, cluster, strategy,
                                        algorithm=algo, decisions=decisions)
            rows.append((k, result.iteration_time))
        return rows

    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    report("ablation_partitions", format_table(
        ["partitions K", "iteration time (ms)"],
        [[k, f"{t * 1000:.2f}"] for k, t in rows]))
    times = dict(rows)
    assert min(times[4], times[8], times[16]) < times[1]


def test_coordinator_batching_policy(benchmark, report):
    """Many tiny gradients: the bulk coordinator must beat per-message
    sends, and the effect should grow with message count."""
    model = model_of([64 * 1024] * 150, v100_s=0.005)
    cluster = ec2_v100_cluster(8)
    algo = OneBit()

    def run_pair():
        no_bulk = simulate_iteration(model, cluster, CaSyncPS(bulk=False),
                                     algorithm=algo)
        bulk = simulate_iteration(model, cluster, CaSyncPS(bulk=True),
                                  algorithm=algo)
        return no_bulk.iteration_time, bulk.iteration_time

    no_bulk_t, bulk_t = benchmark.pedantic(run_pair, rounds=1, iterations=1)
    report("ablation_coordinator", format_table(
        ["configuration", "iteration time (ms)"],
        [["per-message sends", f"{no_bulk_t * 1000:.2f}"],
         ["bulk coordinator", f"{bulk_t * 1000:.2f}"]]))
    assert bulk_t <= no_bulk_t * 1.05


def test_batch_compression_launch_fusion(benchmark, report):
    """Batch compression amortizes kernel-launch overhead across many
    small encodes (§3.2); a bulk plan turns it on."""
    model = model_of([128 * 1024] * 200, v100_s=0.004)
    cluster = ec2_v100_cluster(4)
    algo = OneBit()

    def run_pair():
        separate = simulate_iteration(
            model, cluster, CaSyncPS(selective=False, bulk=False),
            algorithm=algo)
        fused = simulate_iteration(
            model, cluster, CaSyncPS(selective=False, bulk=True),
            algorithm=algo)
        return separate.compression_time, fused.compression_time

    separate_t, fused_t = benchmark.pedantic(run_pair, rounds=1,
                                             iterations=1)
    report("ablation_batch_compression", format_table(
        ["configuration", "GPU compression time (ms)"],
        [["one launch per tensor", f"{separate_t * 1000:.2f}"],
         ["batched launches", f"{fused_t * 1000:.2f}"]]))
    assert fused_t < separate_t


def test_ring_bucket_size(benchmark, report):
    """Ring fusion-buffer sweep: tiny buckets pay per-step latency, huge
    buckets forfeit overlap with backward."""
    model = model_of([16 * MB] * 24, v100_s=0.05)
    cluster = ec2_v100_cluster(8)

    def run_sweep():
        rows = []
        for bucket_mb in (4, 16, 64, 384):
            strategy = RingAllreduce(bucket_bytes=bucket_mb * MB)
            result = simulate_iteration(model, cluster, strategy)
            rows.append((bucket_mb, result.iteration_time))
        return rows

    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    report("ablation_bucket_size", format_table(
        ["bucket size (MB)", "iteration time (ms)"],
        [[mb, f"{t * 1000:.2f}"] for mb, t in rows]))
    times = dict(rows)
    assert min(times[16], times[64]) <= times[4]


def test_gpu_vs_cpu_aggregation(benchmark, report):
    """CaSync's GPU-side aggregators vs BytePS's host-CPU servers on the
    same (RDMA) network: the architectural choice §5 makes."""
    model = model_of([64 * MB] * 8, v100_s=0.02)
    cluster = ec2_v100_cluster(8)
    algo = OneBit()

    def run_pair():
        cpu_servers = simulate_iteration(model, cluster, BytePS())
        gpu_aggs = simulate_iteration(model, cluster, CaSyncPS(),
                                      algorithm=algo)
        return cpu_servers.iteration_time, gpu_aggs.iteration_time

    cpu_t, gpu_t = benchmark.pedantic(run_pair, rounds=1, iterations=1)
    report("ablation_aggregation", format_table(
        ["aggregation", "iteration time (ms)"],
        [["host-CPU servers (BytePS)", f"{cpu_t * 1000:.2f}"],
         ["GPU aggregators + compression (CaSync)", f"{gpu_t * 1000:.2f}"]]))
    assert gpu_t < cpu_t


def test_comm_buffer_memory(benchmark, report):
    """§5's memory claim: CaSync allocates only compressed-size buffers,
    while the OSS integration's staging copies hold full-size tensors."""
    from repro.experiments import run_system
    cluster = ec2_v100_cluster(4)

    def run_pair():
        oss = run_system("byteps-oss", "vgg19", cluster, algorithm="onebit")
        hipress = run_system("hipress-ps", "vgg19", cluster,
                             algorithm="onebit")
        return oss.peak_comm_buffer_bytes, hipress.peak_comm_buffer_bytes

    oss_peak, hipress_peak = benchmark.pedantic(run_pair, rounds=1,
                                                iterations=1)
    report("ablation_memory", format_table(
        ["system", "peak comm-buffer memory (MB)"],
        [["BytePS(OSS-onebit)", f"{oss_peak / MB:.0f}"],
         ["HiPress-CaSync-PS", f"{hipress_peak / MB:.0f}"]]))
    assert hipress_peak < oss_peak / 5
