"""Unit tests for the CaSync task system: graph, engines, coordinator."""

import pytest

from repro.casync import Coordinator, NodeEngine, Task, TaskGraph, run_graph
from repro.casync.tasks import robust_transfer
from repro.cluster.spec import wan_edge_cluster
from repro.faults import (FaultInjector, FaultSchedule, LinkPartition,
                          RetryPolicy)
from repro.faults.membership import Membership
from repro.gpu import Gpu, V100
from repro.net import Fabric, NetworkSpec
from repro.sim import Environment


def make_world(num_nodes=2, gbps=80.0, coordinator=False, spec=None,
               **coord_kw):
    env = Environment()
    fabric = Fabric(env, num_nodes,
                    spec or NetworkSpec(bandwidth_gbps=gbps, latency_us=0,
                                        efficiency=1.0))
    gpus = [Gpu(env, V100, i) for i in range(num_nodes)]
    coord = Coordinator(env, fabric, **coord_kw) if coordinator else None
    engines = [NodeEngine(env, i, gpus[i], fabric, coordinator=coord)
               for i in range(num_nodes)]
    return env, fabric, gpus, engines, coord


def test_task_validation():
    with pytest.raises(ValueError):
        Task(0, "explode")
    with pytest.raises(ValueError):
        Task(0, "send")  # missing dst


def test_linear_chain_executes_in_order():
    env, fabric, gpus, engines, _ = make_world(1)
    graph = TaskGraph(env)
    a = graph.add(Task(0, "encode", "a", duration=0.5))
    b = graph.add(Task(0, "decode", "b", duration=0.25), deps=[a])
    finish = run_graph(env, graph, engines)
    assert finish == pytest.approx(0.75)
    assert a.finished_at <= b.started_at


def test_independent_tasks_serialize_on_one_stream():
    env, fabric, gpus, engines, _ = make_world(1)
    graph = TaskGraph(env)
    graph.add(Task(0, "encode", "a", duration=1.0))
    graph.add(Task(0, "encode", "b", duration=1.0))
    finish = run_graph(env, graph, engines)
    assert finish == pytest.approx(2.0)


def test_tasks_on_different_nodes_run_in_parallel():
    env, fabric, gpus, engines, _ = make_world(2)
    graph = TaskGraph(env)
    graph.add(Task(0, "encode", "a", duration=1.0))
    graph.add(Task(1, "encode", "b", duration=1.0))
    finish = run_graph(env, graph, engines)
    assert finish == pytest.approx(1.0)


def test_send_transfers_bytes():
    env, fabric, gpus, engines, _ = make_world(2, gbps=8.0)  # 1 GB/s
    graph = TaskGraph(env)
    graph.add(Task(0, "send", "s", nbytes=1e9, dst=1))
    finish = run_graph(env, graph, engines)
    assert finish == pytest.approx(1.0)
    assert fabric.stats.bytes_sent == 1e9


def test_cross_node_dependency_via_send():
    """decode on node 1 waits for node 0's send to deliver."""
    env, fabric, gpus, engines, _ = make_world(2, gbps=8.0)
    graph = TaskGraph(env)
    enc = graph.add(Task(0, "encode", "enc", duration=0.5))
    snd = graph.add(Task(0, "send", "snd", nbytes=1e9, dst=1), deps=[enc])
    dec = graph.add(Task(1, "decode", "dec", duration=0.25), deps=[snd])
    finish = run_graph(env, graph, engines)
    assert finish == pytest.approx(1.75)
    assert dec.started_at == pytest.approx(1.5)


def test_diamond_dependencies():
    env, fabric, gpus, engines, _ = make_world(1)
    graph = TaskGraph(env)
    a = graph.add(Task(0, "encode", "a", duration=1.0))
    b = graph.add(Task(0, "merge", "b", duration=1.0), deps=[a])
    c = graph.add(Task(0, "merge", "c", duration=2.0), deps=[a])
    d = graph.add(Task(0, "notify", "d"), deps=[b, c])
    finish = run_graph(env, graph, engines)
    assert finish == pytest.approx(4.0)  # a, then b and c serialized
    assert d.finished_at == finish


def test_raw_event_dependency():
    env, fabric, gpus, engines, _ = make_world(1)
    ready = env.event()
    graph = TaskGraph(env)
    graph.add(Task(0, "encode", "a", duration=1.0), deps=[ready])

    def fire(env):
        yield env.timeout(5)
        ready.succeed()

    env.process(fire(env))
    finish = run_graph(env, graph, engines)
    assert finish == pytest.approx(6.0)


def test_notify_is_instant():
    env, fabric, gpus, engines, _ = make_world(1)
    graph = TaskGraph(env)
    graph.add(Task(0, "notify", "n"))
    assert run_graph(env, graph, engines) == 0.0


def test_cpu_tasks_run_off_gpu_stream():
    env, fabric, gpus, engines, _ = make_world(1)
    graph = TaskGraph(env)
    graph.add(Task(0, "cpu", "host", duration=1.0))
    graph.add(Task(0, "encode", "gpu", duration=1.0))
    finish = run_graph(env, graph, engines)
    assert finish == pytest.approx(1.0)  # parallel executors
    assert engines[0].cpu_busy == pytest.approx(1.0)
    assert engines[0].compute_busy == pytest.approx(1.0)


def test_batch_compression_fuses_launches():
    # 10 tiny kernels: duration 11us each, 10us of which is launch.
    env, fabric, gpus, engines, _ = make_world(1)
    graph = TaskGraph(env, bulk=True)
    for i in range(10):
        graph.add(Task(0, "encode", f"k{i}", duration=11e-6,
                       launch_overhead=10e-6, nbytes=100))
    finish = run_graph(env, graph, engines)
    # Fused: 10 x 1us compute + one 10us launch = 20us, not 110us.
    assert finish == pytest.approx(20e-6, rel=0.01)


def test_no_batching_without_flag():
    env, fabric, gpus, engines, _ = make_world(1)
    graph = TaskGraph(env)
    for i in range(10):
        graph.add(Task(0, "encode", f"k{i}", duration=11e-6,
                       launch_overhead=10e-6))
    finish = run_graph(env, graph, engines)
    assert finish == pytest.approx(110e-6, rel=0.01)


# ---------------------------------------------------------------- coordinator

def test_coordinator_batches_small_sends():
    env, fabric, gpus, engines, coord = make_world(
        2, gbps=8.0, coordinator=True, size_threshold=1000, timeout_s=10.0)
    graph = TaskGraph(env)
    for i in range(10):
        graph.add(Task(0, "send", f"s{i}", nbytes=100, dst=1, bulk=True))
    run_graph(env, graph, engines)
    assert coord.batches_flushed == 1
    assert coord.tasks_batched == 10
    assert fabric.stats.messages == 1


def test_coordinator_flushes_on_timeout():
    env, fabric, gpus, engines, coord = make_world(
        2, coordinator=True, size_threshold=1e12, timeout_s=0.01)
    graph = TaskGraph(env)
    t = graph.add(Task(0, "send", "s", nbytes=10, dst=1, bulk=True))
    finish = run_graph(env, graph, engines)
    assert coord.batches_flushed == 1
    assert 0.005 <= finish <= 0.05


def test_coordinator_separate_links_batch_separately():
    env, fabric, gpus, engines, coord = make_world(
        3, coordinator=True, size_threshold=150, timeout_s=10.0)
    graph = TaskGraph(env)
    graph.add(Task(0, "send", "a", nbytes=100, dst=1, bulk=True))
    graph.add(Task(0, "send", "b", nbytes=100, dst=2, bulk=True))
    graph.add(Task(0, "send", "c", nbytes=100, dst=1, bulk=True))
    graph.add(Task(0, "send", "d", nbytes=100, dst=2, bulk=True))
    run_graph(env, graph, engines)
    assert coord.batches_flushed == 2


def test_retried_flush_over_wan_link_delivers_on_first_attempt():
    # Timed against the 100 Gbps core, a 1 MB flush over a 1 Gbps / 20 ms
    # WAN uplink would be declared stalled and retried, finishing later.
    network = wan_edge_cluster(4).network
    env, fabric, gpus, engines, coord = make_world(
        4, spec=network, coordinator=True, size_threshold=1e12,
        timeout_s=0.001, retry_policy=RetryPolicy())
    src = network.wan.members(4)[0]
    dst = (src + 1) % 4
    graph = TaskGraph(env)
    task = graph.add(Task(src, "send", "s", nbytes=1e6, dst=dst, bulk=True))
    finish = run_graph(env, graph, engines)
    assert task.triggered and task.error is None
    assert fabric.stats.messages == 1
    assert finish == pytest.approx(
        0.001 + fabric.pair_transfer_time(src, dst, 1e6))


def test_retry_loop_counts_task_attempts_and_stops_once_forced():
    # Every attempt stalls on the partitioned link.  The first failed
    # attempt force-completes the task, as the degradation controller
    # does; the loop must give up instead of retrying into a dead peer.
    env = Environment()
    fabric = Fabric(env, 2, NetworkSpec(bandwidth_gbps=10))
    FaultInjector(env, FaultSchedule.of(LinkPartition(at=0.0, src=0, dst=1)),
                  fabric=fabric)
    task = Task(0, "send", "s", nbytes=1e6, dst=1)

    def force_complete():
        task.triggered = True

    outcomes = []
    robust_transfer(env, fabric, 0, 1, 1e6, RetryPolicy(max_attempts=4),
                    lambda *outcome: outcomes.append(outcome),
                    on_retry=force_complete, task=task)
    env.run()
    assert outcomes == [("forced", 1)]
    assert task.attempts == 1


def test_rerouted_send_is_timed_on_the_substitute_link():
    # Node 1 is dead, so the send re-routes to node 2, the WAN member.
    # Timed against the 0->1 core link (0.13 ms) every attempt to reach
    # node 2 (23 ms) would time out and the live node would be declared
    # dead too.
    cluster = wan_edge_cluster(4)
    assert cluster.network.wan.members(4) == (2,)
    env = Environment()
    fabric = Fabric(env, 4, cluster.network)
    membership = Membership(4)
    membership.declare_dead(1)
    retries = []
    outcomes = []
    robust_transfer(env, fabric, 0, 1, 1e6, RetryPolicy(max_attempts=4),
                    lambda *outcome: outcomes.append(outcome), membership,
                    on_retry=lambda: retries.append(env.now))
    env.run()
    assert outcomes == [("delivered", 2)]
    assert retries == []
    assert membership.dead() == (1,)


def test_retry_loop_abandons_a_timed_out_send_on_a_pristine_fabric():
    # A retry policy without a fault schedule: the first attempt (1 MB,
    # 0.89 ms) outlives its 0.45 ms timeout and is abandoned; its NIC
    # reservation stands, so the retry after the 1 ms backoff queues
    # behind it.  Only the delivered attempt counts as a message.
    env = Environment()
    fabric = Fabric(env, 2, NetworkSpec(bandwidth_gbps=10.0))
    policy = RetryPolicy(timeout_factor=0.5, min_timeout_s=1e-6)
    retries, outcomes = [], []
    robust_transfer(env, fabric, 0, 1, 1e6, policy,
                    lambda *outcome: outcomes.append(outcome),
                    on_retry=lambda: retries.append(env.now))
    env.run()
    assert outcomes == [("delivered", 1)]
    assert retries == [0.00044694444444444447]
    assert env.now == 0.0023408333333333332
    assert fabric.stats.messages == 1


def test_non_bulk_send_bypasses_coordinator():
    env, fabric, gpus, engines, coord = make_world(
        2, coordinator=True, size_threshold=1e12, timeout_s=100.0)
    graph = TaskGraph(env)
    graph.add(Task(0, "send", "big", nbytes=1e6, dst=1, bulk=False))
    run_graph(env, graph, engines)
    assert coord.batches_flushed == 0
    assert fabric.stats.messages == 1


def test_coordinator_validation():
    env = Environment()
    fabric = Fabric(env, 2, NetworkSpec(bandwidth_gbps=10))
    with pytest.raises(ValueError):
        Coordinator(env, fabric, size_threshold=0)
    with pytest.raises(ValueError):
        Coordinator(env, fabric, timeout_s=0)
