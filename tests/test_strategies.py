"""Tests for synchronization strategies: structure and timing behaviour.

These run small clusters (2-4 nodes) and small models so each case stays
fast while still exercising the full task pipeline end to end.
"""

import pytest

from repro.algorithms import DGC, OneBit
from repro.casync.passes import PassContext
from repro.cluster import CLUSTER_PRESETS, ec2_v100_cluster, get_cluster
from repro.errors import ConfigError
from repro.models import GradientSpec, ModelSpec, get_model
from repro.strategies import (
    BytePS,
    BytePSOSSCompression,
    CaSyncPS,
    CaSyncRing,
    RingAllreduce,
    RingOSSCompression,
    bucketize,
    partition_sizes,
)
from repro.training import simulate_iteration

MB = 1024 * 1024


def tiny_model(sizes=(8 * MB, 2 * MB, 64 * 1024), name="tiny",
               v100_s=0.01) -> ModelSpec:
    grads = tuple(GradientSpec(f"{name}.g{i}", s) for i, s in enumerate(sizes))
    return ModelSpec(name=name, gradients=grads, batch_size=8,
                     batch_unit="images", v100_iteration_s=v100_s)


ALL_STRATEGIES = [
    RingAllreduce(),
    BytePS(),
    BytePSOSSCompression(),
    RingOSSCompression(),
    CaSyncPS(selective=False),
    CaSyncRing(selective=False),
]


# ---------------------------------------------------------------- helpers

def test_bucketize_groups_in_order():
    grads = [GradientSpec(f"g{i}", 10) for i in range(5)]
    buckets = bucketize(grads, 25)
    assert [len(b) for b in buckets] == [3, 2]
    assert buckets[0][0].name == "g0"


def test_bucketize_validation():
    for bucket_bytes in (0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="bucket_bytes"):
            bucketize([], bucket_bytes)


@pytest.mark.parametrize("preset", sorted(CLUSTER_PRESETS))
def test_ring_step_overhead_is_at_least_the_nccl_overhead(preset):
    # Ring buckets always lay out their per-step pause rows on this.
    for n in (2, 4, 8, 16):
        pctx = PassContext(num_nodes=n, cluster=get_cluster(preset, n))
        assert (RingAllreduce()._step_overhead(pctx)
                >= RingAllreduce.NCCL_STEP_OVERHEAD_S)


def test_partition_sizes_even():
    parts = partition_sizes(10 * MB, 4 * MB)
    assert len(parts) == 3
    assert sum(parts) == pytest.approx(10 * MB)


def test_partition_sizes_small_gradient_single_part():
    assert len(partition_sizes(1024, 4 * MB)) == 1


@pytest.mark.parametrize("part_bytes", [0, -1.0, 0.5, float("nan")])
def test_byteps_rejects_part_bytes_below_one(part_bytes):
    with pytest.raises(ValueError, match="part_bytes"):
        simulate_iteration(tiny_model(), ec2_v100_cluster(2),
                           BytePS(part_bytes=part_bytes))


# ---------------------------------------------------------------- generic behaviour

@pytest.mark.parametrize("strategy", ALL_STRATEGIES, ids=lambda s: s.name)
def test_strategy_completes(strategy):
    model = tiny_model()
    cluster = ec2_v100_cluster(3)
    result = simulate_iteration(model, cluster, strategy,
                                algorithm=OneBit())
    assert result.iteration_time > 0
    assert result.iteration_time >= result.compute_time


@pytest.mark.parametrize("strategy", ALL_STRATEGIES, ids=lambda s: s.name)
def test_single_node_is_compute_bound(strategy):
    """With one node there is nothing to synchronize over the network."""
    model = tiny_model()
    cluster = ec2_v100_cluster(1)
    result = simulate_iteration(model, cluster, strategy,
                                algorithm=OneBit())
    assert result.comm_ratio == 0.0
    # Iteration ~ compute, plus compression overhead; byteps-oss pays its
    # host-CPU decode/encode penalty even at one node, by design.
    assert result.iteration_time <= result.compute_time * 2.0


def test_more_nodes_same_weak_scaled_throughput_direction():
    """Weak scaling: total throughput grows with nodes even as efficiency
    drops."""
    model = tiny_model(sizes=(32 * MB, 16 * MB), v100_s=0.02)
    small = simulate_iteration(model, ec2_v100_cluster(2), RingAllreduce())
    large = simulate_iteration(model, ec2_v100_cluster(8), RingAllreduce())
    assert large.throughput > small.throughput
    assert large.scaling_efficiency <= small.scaling_efficiency + 1e-6


def test_compression_reduces_bytes_on_wire():
    model = tiny_model(sizes=(64 * MB,), v100_s=0.02)
    cluster = ec2_v100_cluster(4)
    plain = simulate_iteration(model, cluster, RingAllreduce())
    compressed = simulate_iteration(
        model, cluster, CaSyncRing(selective=False), algorithm=OneBit())
    assert compressed.comm_ratio < plain.comm_ratio


def test_casync_beats_oss_on_comm_bound_model():
    """The headline claim in miniature: compression-aware beats bolted-on."""
    model = tiny_model(sizes=(128 * MB, 96 * MB, 64 * MB), v100_s=0.01)
    cluster = ec2_v100_cluster(4)
    algo = OneBit()
    oss = simulate_iteration(model, cluster, BytePSOSSCompression(),
                             algorithm=algo)
    casync = simulate_iteration(model, cluster, CaSyncPS(), algorithm=algo)
    assert casync.iteration_time < oss.iteration_time


def test_casync_beats_no_compression_on_comm_bound_model():
    model = tiny_model(sizes=(256 * MB, 128 * MB), v100_s=0.01)
    cluster = ec2_v100_cluster(4)
    algo = OneBit()
    base = simulate_iteration(model, cluster, RingAllreduce())
    casync = simulate_iteration(model, cluster, CaSyncRing(), algorithm=algo)
    assert casync.iteration_time < base.iteration_time


def test_oss_requires_algorithm():
    model = tiny_model()
    cluster = ec2_v100_cluster(2)
    with pytest.raises(ValueError):
        simulate_iteration(model, cluster, BytePSOSSCompression())
    with pytest.raises(ValueError):
        simulate_iteration(model, cluster, CaSyncPS(selective=False))


def test_casync_selective_without_codec_raises_config_error():
    model = tiny_model()
    cluster = ec2_v100_cluster(2)
    with pytest.raises(ConfigError) as err:
        simulate_iteration(model, cluster, CaSyncPS(selective=True))
    assert err.value.kind == "algorithm"


def test_casync_pipelining_helps_large_gradients():
    model = tiny_model(sizes=(256 * MB,), v100_s=0.005)
    cluster = ec2_v100_cluster(4)
    algo = OneBit()
    no_pipe = simulate_iteration(
        model, cluster, CaSyncPS(pipelining=False, bulk=False,
                                 selective=False), algorithm=algo)
    pipe = simulate_iteration(
        model, cluster, CaSyncPS(pipelining=True, bulk=False,
                                 selective=False), algorithm=algo)
    assert pipe.iteration_time < no_pipe.iteration_time


def test_casync_bulk_helps_many_small_gradients():
    model = tiny_model(sizes=tuple([64 * 1024] * 120), v100_s=0.005)
    cluster = ec2_v100_cluster(4)
    algo = OneBit()
    no_bulk = simulate_iteration(
        model, cluster, CaSyncPS(bulk=False), algorithm=algo)
    bulk = simulate_iteration(
        model, cluster, CaSyncPS(bulk=True), algorithm=algo)
    assert bulk.iteration_time <= no_bulk.iteration_time * 1.02
    # The plan alone decides whether the round runs the coordinator.
    assert bulk.coordinator_batches > 0
    assert no_bulk.coordinator_batches == 0


def test_ring_oss_coarse_slower_than_casync_ring():
    """Where CaSync-Ring's selective compression + bulk batching win: many
    small gradients, which Ring(OSS-DGC) compresses indiscriminately and
    then decodes N times each, serially, after its bulk allgather."""
    model = tiny_model(sizes=(64 * MB,) + (256 * 1024,) * 60, v100_s=0.01)
    cluster = ec2_v100_cluster(8)
    algo = DGC(rate=0.01)
    oss = simulate_iteration(model, cluster, RingOSSCompression(),
                             algorithm=algo)
    casync = simulate_iteration(model, cluster, CaSyncRing(), algorithm=algo)
    assert casync.iteration_time < oss.iteration_time


def test_gpu_util_series_present():
    # A 50 ms backward pass spans several 10 ms utilization bins.
    model = tiny_model(v100_s=0.05)
    result = simulate_iteration(model, ec2_v100_cluster(2), RingAllreduce())
    assert len(result.gpu_util_series) >= 5
    assert all(0 <= u <= 1 for u in result.gpu_util_series)


def test_iteration_result_throughput_math():
    model = tiny_model()
    result = simulate_iteration(model, ec2_v100_cluster(2), RingAllreduce())
    expected = (result.total_gpus * model.batch_size
                / result.iteration_time)
    assert result.throughput == pytest.approx(expected)
    assert result.total_gpus == 2 * 8


def test_real_model_zoo_integration():
    """A real Table 6 model runs through the whole stack."""
    model = get_model("resnet50")
    cluster = ec2_v100_cluster(2)
    algo = OneBit()
    result = simulate_iteration(model, cluster, CaSyncPS(), algorithm=algo)
    assert 0.1 < result.scaling_efficiency <= 1.05
