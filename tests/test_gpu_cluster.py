"""Unit tests for the GPU model and cluster specs."""

import pytest

from repro.cluster import (
    ClusterSpec,
    InterconnectSpec,
    NodeSpec,
    ec2_v100_cluster,
    local_1080ti_cluster,
)
from repro.gpu import GTX1080TI, Gpu, GpuSpec, IntervalLog, V100
from repro.sim import Environment, SimulationError


# ---------------------------------------------------------------- GpuSpec

def test_kernel_time_scales_with_bytes():
    spec = GpuSpec(name="t", mem_bandwidth_gbs=100.0, kernel_launch_us=10,
                   mem_efficiency=1.0)
    t_small = spec.kernel_time(1e6)
    t_big = spec.kernel_time(1e9)
    assert t_big > t_small
    # 1e9 bytes at 100 GB/s = 10 ms (+10us launch)
    assert t_big == pytest.approx(0.01 + 10e-6)


def test_kernel_time_launch_overhead_dominates_tiny_kernels():
    spec = GpuSpec(name="t", mem_bandwidth_gbs=900.0, kernel_launch_us=10)
    assert spec.kernel_time(100) == pytest.approx(10e-6, rel=0.01)


def test_kernel_time_multiple_launches():
    spec = GpuSpec(name="t", mem_bandwidth_gbs=100.0, kernel_launch_us=10,
                   mem_efficiency=1.0)
    assert spec.kernel_time(0, kernels=3) == pytest.approx(30e-6)


def test_kernel_time_validation():
    with pytest.raises(ValueError):
        V100.kernel_time(-1)
    with pytest.raises(ValueError):
        V100.kernel_time(10, kernels=0)


def test_builtin_specs():
    assert V100.mem_bandwidth_gbs > GTX1080TI.mem_bandwidth_gbs
    assert V100.name == "V100"


def test_spec_validation():
    with pytest.raises(ValueError):
        GpuSpec(name="bad", mem_bandwidth_gbs=0)
    with pytest.raises(ValueError):
        GpuSpec(name="bad", mem_bandwidth_gbs=10, mem_efficiency=2)


# ---------------------------------------------------------------- Gpu

def test_gpu_streams_are_independent():
    env = Environment()
    gpu = Gpu(env, V100)
    done = []
    gpu.run_compute(2.0, lambda tag: done.append((tag, env.now)), "compute")
    gpu.run_kernel(1.0, lambda tag: done.append((tag, env.now)), "kernel")
    env.run()
    assert ("kernel", 1.0) in done
    assert ("compute", 2.0) in done


def test_gpu_same_stream_serializes():
    env = Environment()
    gpu = Gpu(env, V100)
    done = []

    def finished(tag):
        done.append((tag, env.now))
        if tag == "a":
            gpu.run_kernel(1.0, finished, "b")

    gpu.run_kernel(1.0, finished, "a")
    env.run()
    assert done == [("a", 1.0), ("b", 2.0)]
    assert gpu.comm.free_at == 2.0
    # The stream holds one kernel at a time: a launch while one runs is
    # refused at once, not queued behind it.
    gpu.run_kernel(1.0, finished, "c")
    with pytest.raises(SimulationError, match="reserved until 3.0"):
        gpu.run_kernel(1.0, finished, "d")
    env.run()
    assert done[2:] == [("c", 3.0)]


def test_gpu_log_records_intervals():
    env = Environment()
    gpu = Gpu(env, V100)
    gpu.run_compute(1.5, lambda _token: gpu.run_kernel(0.5, lambda _: None))
    env.run()
    assert gpu.log.busy_time("compute") == pytest.approx(1.5)
    assert gpu.log.busy_time("compression") == pytest.approx(0.5)
    assert gpu.log.busy_time() == pytest.approx(2.0)


def test_gpu_negative_duration_rejected():
    env = Environment()
    gpu = Gpu(env, V100)
    with pytest.raises(ValueError, match="negative duration"):
        gpu.run_compute(-1, lambda _token: None)
    with pytest.raises(ValueError, match="negative duration"):
        gpu.run_kernel(-1, lambda _token: None)


@pytest.mark.parametrize("seconds", [float("nan"), float("inf")])
@pytest.mark.parametrize("stream", ["compute", "comm"])
def test_gpu_non_finite_duration_rejected_at_the_request(seconds, stream):
    """A NaN duration would pass a negative test and leave the stream
    reserved until nan, with no kernel named; an infinite one would
    drive the clock to inf.  Both are refused at the request, naming the
    stream, and schedule nothing."""
    env = Environment()
    gpu = Gpu(env, V100)
    run = gpu.run_compute if stream == "compute" else gpu.run_kernel
    with pytest.raises(ValueError,
                       match=f"gpu-{stream}: non-finite duration {seconds}"):
        run(seconds, lambda _token: None)
    assert env.peek() == float("inf")
    assert getattr(gpu, stream).free_at == 0.0


# ---------------------------------------------------------------- IntervalLog

def test_interval_log_utilization_series():
    log = IntervalLog()
    log.record(0.0, 1.0, "compute")
    log.record(2.0, 2.5, "compute")
    series = log.utilization_series(bin_width=1.0, horizon=3.0)
    assert series == [pytest.approx(1.0), pytest.approx(0.0), pytest.approx(0.5)]


def test_interval_log_category_filter():
    log = IntervalLog()
    log.record(0, 1, "a")
    log.record(0, 2, "b")
    assert log.busy_time("a") == 1
    assert log.busy_time("b") == 2
    assert log.busy_time() == 3


def test_interval_log_rejects_reversed():
    log = IntervalLog()
    with pytest.raises(ValueError):
        log.record(2, 1, "x")


# ---------------------------------------------------------------- cluster

def test_ec2_profile_matches_paper():
    cluster = ec2_v100_cluster()
    assert cluster.num_nodes == 16
    assert cluster.node.gpus_per_node == 8
    assert cluster.total_gpus == 128
    assert cluster.network.bandwidth_gbps == 100.0
    assert cluster.node.gpu.name == "V100"


def test_local_profile_matches_paper():
    cluster = local_1080ti_cluster()
    assert cluster.total_gpus == 32
    assert cluster.network.bandwidth_gbps == 56.0
    assert cluster.node.gpu.name == "1080Ti"


def test_with_nodes_rescales():
    cluster = ec2_v100_cluster().with_nodes(4)
    assert cluster.num_nodes == 4
    assert cluster.total_gpus == 32


def test_with_bandwidth():
    cluster = ec2_v100_cluster().with_bandwidth(25.0)
    assert cluster.network.bandwidth_gbps == 25.0
    # other fields preserved
    assert cluster.num_nodes == 16


def test_local_aggregation_time_single_gpu_free():
    node = NodeSpec(gpus_per_node=1, gpu=V100,
                    interconnect=InterconnectSpec(name="x", bandwidth_gbs=100))
    assert node.local_aggregation_time(1e9) == 0.0


def test_local_aggregation_time_scales():
    node = ec2_v100_cluster().node
    t1 = node.local_aggregation_time(1e6)
    t2 = node.local_aggregation_time(1e9)
    assert 0 < t1 < t2


def test_nvlink_faster_than_pcie():
    ec2 = ec2_v100_cluster().node
    local = local_1080ti_cluster().node
    # Per-byte local aggregation is cheaper over NVLink even with 8 GPUs
    # against 2 on PCIe.
    assert ec2.local_aggregation_time(1e9) < local.local_aggregation_time(1e9)


def test_cluster_validation():
    with pytest.raises(ValueError):
        ec2_v100_cluster(num_nodes=0)
    with pytest.raises(ValueError):
        NodeSpec(gpus_per_node=0, gpu=V100,
                 interconnect=InterconnectSpec(name="x", bandwidth_gbs=1))
    with pytest.raises(ValueError):
        InterconnectSpec(name="bad", bandwidth_gbs=0)


def test_interrupted_kernel_releases_the_stream():
    """A NodeCrash mid-kernel, delivered by the FaultInjector, abandons
    the compute kernel: its span closes ``interrupted`` at the crash, it
    logs no busy interval, and the NodeRestart recomputes the pass on the
    freed stream."""
    from repro.faults import FaultSchedule, NodeCrash, NodeRestart
    from repro.models import GradientSpec, ModelSpec
    from repro.strategies import BytePS
    from repro.telemetry import telemetry_session
    from repro.training.loop import _run_round

    model = ModelSpec(name="g", gradients=(GradientSpec("g.w", 1 << 20),),
                      batch_size=4, batch_unit="images",
                      v100_iteration_s=0.001)
    schedule = FaultSchedule.of(NodeCrash(at=1e-4, node=1),
                                NodeRestart(at=5e-4, node=1))
    with telemetry_session() as tel:
        rnd = _run_round(model, ec2_v100_cluster(2), BytePS(),
                         fault_schedule=schedule)
    kernels = [span for span in tel.spans
               if span.track == "node1/gpu-compute"]
    aborted, *recomputed = kernels
    assert (aborted.start, aborted.end) == (0.0, 1e-4)
    assert aborted.attrs["outcome"] == "interrupted"
    assert recomputed[0].start == 5e-4
    assert all("outcome" not in span.attrs for span in recomputed)
    intervals = rnd.gpus[1].log.intervals
    assert [start for start, _, _ in intervals][0] == 5e-4
    assert len(intervals) == len(recomputed)
    assert rnd.gpus[1].compute.free_at == intervals[-1][1]
    assert not rnd.report.aborted
