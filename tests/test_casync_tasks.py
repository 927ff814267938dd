"""Unit tests for the CaSync task system: graph, engines, coordinator."""

import math

import pytest

from repro.casync import Coordinator, NodeEngine, run_graph
from repro.casync.tasks import robust_transfer
from repro.cluster.spec import wan_edge_cluster
from repro.faults import (FaultInjector, FaultSchedule, GpuSlowdown,
                          LinkPartition, RetryPolicy)
from repro.faults.membership import Membership
from repro.gpu import Gpu, V100
from repro.net import Fabric, NetworkSpec
from repro.sim import NORMAL, Environment
from repro.telemetry import TelemetryCollector
from tests.taskgraph_rows import build, join, recipe, row, task, tasks


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
    # A recipe is validated once, when it is built; the error names the
    # bad row (its plan row, here after one good row and a join).
    good = [row(0, "encode", "ok", duration=1.0), join(deps=[0])]
    bad_rows = [row(0, "explode", "bad"),
                row(0, "send", "bad"),  # missing dst
                row(0, "encode", "bad", duration=float("nan"))]
    for kind in ("encode", "cpu"):
        bad_rows += [row(0, kind, "bad", duration=-1.0),
                     row(0, kind, "bad", duration=1.0, launch_overhead=-1.0)]
    for bad in bad_rows:
        with pytest.raises(ValueError, match=r"^recipe row 2 \('bad'\): "
                           r"unknown kind.*negative or non-finite"):
            recipe(good + [bad, row(0, "explode", "later")])
    assert recipe(good).routes == bytes([0])


@pytest.mark.parametrize("field", ["duration", "launch_overhead"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_task_rejects_non_finite_costs(field, value):
    # NaN slips past a ``< 0`` test and would only fail later, inside
    # call_later; infinity would never finish.
    with pytest.raises(ValueError, match="non-finite"):
        recipe([row(0, "cpu", **{field: value})])


@pytest.mark.parametrize("kind", ["encode", "cpu"])
def test_executor_errors_propagate_out_of_run_graph(kind):
    # An executor is callbacks: its error surfaces out of the event loop
    # as itself, not as a deadlock of the round.
    env, fabric, gpus, engines, _ = make_world(1)
    graph = build(env, [row(0, kind, "bad", duration=1.0)])
    graph.recipe.durations[0] = -1.0  # corrupted after validation
    with pytest.raises(ValueError, match="negative"):
        run_graph(env, graph, engines)


def test_linear_chain_executes_in_order():
    env, fabric, gpus, engines, _ = make_world(1)
    graph = build(env, [row(0, "encode", "a", duration=0.5),
                        row(0, "decode", "b", duration=0.25, deps=[0])])
    finish = run_graph(env, graph, engines)
    a, b = tasks(graph)
    assert finish == pytest.approx(0.75)
    assert a.finished_at <= b.started_at


def test_independent_tasks_serialize_on_one_stream():
    env, fabric, gpus, engines, _ = make_world(1)
    graph = build(env, [row(0, "encode", "a", duration=1.0),
                        row(0, "encode", "b", duration=1.0)])
    finish = run_graph(env, graph, engines)
    assert finish == pytest.approx(2.0)


def test_tasks_on_different_nodes_run_in_parallel():
    env, fabric, gpus, engines, _ = make_world(2)
    graph = build(env, [row(0, "encode", "a", duration=1.0),
                        row(1, "encode", "b", duration=1.0)])
    finish = run_graph(env, graph, engines)
    assert finish == pytest.approx(1.0)


def test_send_transfers_bytes():
    env, fabric, gpus, engines, _ = make_world(2, gbps=8.0)  # 1 GB/s
    graph = build(env, [row(0, "send", "s", nbytes=1e9, dst=1)])
    finish = run_graph(env, graph, engines)
    assert finish == pytest.approx(1.0)
    assert fabric.stats.bytes_sent == 1e9


def test_cross_node_dependency_via_send():
    """decode on node 1 waits for node 0's send to deliver."""
    env, fabric, gpus, engines, _ = make_world(2, gbps=8.0)
    graph = build(env, [row(0, "encode", "enc", duration=0.5),
                        row(0, "send", "snd", nbytes=1e9, dst=1, deps=[0]),
                        row(1, "decode", "dec", duration=0.25, deps=[1])])
    finish = run_graph(env, graph, engines)
    assert finish == pytest.approx(1.75)
    assert graph.started_at[2] == pytest.approx(1.5)


def test_diamond_dependencies():
    env, fabric, gpus, engines, _ = make_world(1)
    graph = build(env, [row(0, "encode", "a", duration=1.0),
                        row(0, "merge", "b", duration=1.0, deps=[0]),
                        row(0, "merge", "c", duration=2.0, deps=[0]),
                        join(deps=[1, 2])])
    finish = run_graph(env, graph, engines)
    assert finish == pytest.approx(4.0)  # a, then b and c serialized
    assert graph.joined_at[3] == max(graph.finished_at[1:3])


def test_raw_event_dependency():
    """A task waits on an external signal: a ready ref fired at t=5."""
    env, fabric, gpus, engines, _ = make_world(1)
    graph = build(env, [row(0, "encode", "a", duration=1.0,
                            deps=[(0, "g")])])
    env.call_later(5, lambda _value: graph.make_ready(0, "g"))
    finish = run_graph(env, graph, engines)
    assert finish == pytest.approx(6.0)


def test_join_is_instant_and_not_a_task():
    env, fabric, gpus, engines, _ = make_world(1)
    graph = build(env, [join()])
    assert graph.num_tasks == 0 and list(tasks(graph)) == []
    assert run_graph(env, graph, engines) == 0.0
    assert list(graph.joined_at) == [0.0]  # one row, a join


def _stepped_run(rows):
    """Run ``rows``; returns (graph, completions observed, steps)."""
    env, fabric, gpus, engines, _ = make_world(2)
    graph = build(env, rows)
    seen = []
    graph.observers.append(lambda graph, k: seen.append(task(graph, k)))
    steps = [0]
    step = env.step

    def counting():
        steps[0] += 1
        step()
    env.step = counting
    run_graph(env, graph, engines)
    return graph, seen, steps[0]


def test_join_releases_its_dependents_in_the_same_step():
    # A join is no task: it takes no agenda entry, runs no observer and
    # does not count toward ``finished``; its dependents see the
    # predecessors it stands for.  The same graph with the joins' edges
    # inlined steps exactly as many entries, at the same times.
    work = [row(0, "encode", "a", duration=1.0),
            row(1, "encode", "b", duration=0.5)]
    graph, seen, steps = _stepped_run(work + [
        join(deps=[0, 1]),
        join(deps=[2]),
        row(1, "decode", "c", duration=1.0, deps=[3]),
        row(0, "decode", "d", duration=1.0, deps=[2, 0])])
    a, b, c, d = tasks(graph)
    assert [t.row for t in tasks(graph)] == [0, 1, 4, 5]
    assert graph.predecessors(c.index) == (a.index, b.index)
    assert graph.predecessors(d.index) == (a.index, b.index)
    assert [t.index for t in seen] == [1, 0, 2, 3]
    assert graph.joined_at[2:4].tolist() == [1.0, 1.0]
    assert c.started_at == d.started_at == 1.0
    inlined, inlined_seen, inlined_steps = _stepped_run(work + [
        row(1, "decode", "c", duration=1.0, deps=[0, 1]),
        row(0, "decode", "d", duration=1.0, deps=[0, 1])])
    assert steps == inlined_steps
    assert ([(t.label, t.started_at, t.finished_at) for t in seen]
            == [(t.label, t.started_at, t.finished_at) for t in inlined_seen])


def test_cpu_tasks_run_off_gpu_stream():
    env, fabric, gpus, engines, _ = make_world(1)
    graph = build(env, [row(0, "cpu", "host", duration=1.0),
                        row(0, "encode", "gpu", duration=1.0)])
    finish = run_graph(env, graph, engines)
    assert finish == pytest.approx(1.0)  # parallel executors
    assert engines[0].cpu_busy == pytest.approx(1.0)
    assert engines[0].compute_busy == pytest.approx(1.0)


def test_batch_compression_fuses_launches():
    # 10 tiny kernels: duration 11us each, 10us of which is launch.
    env, fabric, gpus, engines, _ = make_world(1)
    graph = build(env, [row(0, "encode", f"k{i}", duration=11e-6,
                            launch_overhead=10e-6, nbytes=100)
                        for i in range(10)], bulk=True)
    finish = run_graph(env, graph, engines)
    # Fused: 10 x 1us compute + one 10us launch = 20us, not 110us.
    assert finish == pytest.approx(20e-6, rel=0.01)


def test_no_batching_without_flag():
    env, fabric, gpus, engines, _ = make_world(1)
    graph = build(env, [row(0, "encode", f"k{i}", duration=11e-6,
                            launch_overhead=10e-6) for i in range(10)])
    finish = run_graph(env, graph, engines)
    assert finish == pytest.approx(110e-6, rel=0.01)


# ---------------------------------------------------------------- coordinator

def test_coordinator_batches_small_sends():
    env, fabric, gpus, engines, coord = make_world(
        2, gbps=8.0, coordinator=True, size_threshold=1000, timeout_s=10.0)
    graph = build(env, [row(0, "send", f"s{i}", nbytes=100, dst=1, bulk=True)
                        for i in range(10)])
    run_graph(env, graph, engines)
    assert coord.batches_flushed == 1
    assert coord.tasks_batched == 10
    assert fabric.stats.messages == 1


def test_coordinator_flushes_on_timeout():
    env, fabric, gpus, engines, coord = make_world(
        2, coordinator=True, size_threshold=1e12, timeout_s=0.01)
    graph = build(env, [row(0, "send", "s", nbytes=10, dst=1, bulk=True)])
    finish = run_graph(env, graph, engines)
    assert coord.batches_flushed == 1
    assert 0.005 <= finish <= 0.05


def test_coordinator_separate_links_batch_separately():
    env, fabric, gpus, engines, coord = make_world(
        3, coordinator=True, size_threshold=150, timeout_s=10.0)
    graph = build(env, [row(0, "send", label, nbytes=100, dst=dst, bulk=True)
                        for label, dst in zip("abcd", (1, 2, 1, 2))])
    run_graph(env, graph, engines)
    assert coord.batches_flushed == 2


def test_one_tick_flushes_keys_in_order_through_a_shared_uplink():
    # Both queues age past the timeout on the same tick; the flush sends
    # 0->1 first, so 0->2 queues behind it on node 0's uplink.
    spec = NetworkSpec(bandwidth_gbps=8.0, latency_us=5.0, efficiency=1.0)
    env, fabric, gpus, engines, coord = make_world(
        3, spec=spec, coordinator=True, size_threshold=1e12,
        timeout_s=0.01)
    graph = build(env, [row(0, "send", "a", nbytes=1000, dst=1, bulk=True),
                        row(0, "send", "b", nbytes=3000, dst=2, bulk=True)])
    run_graph(env, graph, engines)
    first, second = tasks(graph)
    assert coord.batches_flushed == 2
    assert fabric.stats.messages == 2
    flush = 0.01
    assert first.started_at == second.started_at == flush
    rate, latency = spec.bytes_per_second, spec.latency_s
    first_up = flush + 1000 / rate
    second_up = first_up + 3000 / rate
    assert first.finished_at == flush + (first_up + latency - flush)
    assert second.finished_at == flush + (second_up + latency - flush)


def test_retried_flush_over_wan_link_delivers_on_first_attempt():
    # Timed against the 100 Gbps core, a 1 MB flush over a 1 Gbps / 20 ms
    # WAN uplink would be declared stalled and retried, finishing later.
    network = wan_edge_cluster(4).network
    env, fabric, gpus, engines, coord = make_world(
        4, spec=network, coordinator=True, size_threshold=1e12,
        timeout_s=0.001, retry_policy=RetryPolicy())
    src = network.wan.members(4)[0]
    dst = (src + 1) % 4
    graph = build(env, [row(src, "send", "s", nbytes=1e6, dst=dst,
                            bulk=True)])
    finish = run_graph(env, graph, engines)
    task, = tasks(graph)
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
    graph = build(env, [row(0, "send", nbytes=1e6, dst=1)])

    def force_complete():
        graph.triggered[0] = 1

    outcomes = []
    robust_transfer(env, fabric, 0, 1, 1e6, RetryPolicy(max_attempts=4),
                    lambda *outcome: outcomes.append(outcome),
                    on_retry=force_complete, graph=graph, task=0)
    env.run()
    assert outcomes == [("forced", 1)]
    assert graph.attempts == {0: 1}


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


def test_retry_loop_reports_dead_once_every_node_is_declared_dead():
    # The sender was itself declared dead, so exhausting the partitioned
    # peer leaves nobody to re-route to: the loop ends "dead" instead of
    # raising out of the event loop.
    env = Environment()
    fabric = Fabric(env, 2, NetworkSpec(bandwidth_gbps=10))
    FaultInjector(env, FaultSchedule.of(LinkPartition(at=0.0, src=0, dst=1)),
                  fabric=fabric)
    membership = Membership(2)
    membership.declare_dead(0)
    outcomes = []
    robust_transfer(env, fabric, 0, 1, 1e6, RetryPolicy(max_attempts=2),
                    lambda *outcome: outcomes.append(outcome), membership)
    env.run()
    assert outcomes == [("dead", 1)]
    assert membership.dead() == (0, 1)


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
    graph = build(env, [row(0, "send", "big", nbytes=1e6, dst=1,
                            bulk=False)])
    run_graph(env, graph, engines)
    assert coord.batches_flushed == 0
    assert fabric.stats.messages == 1


def _recording_pushes(env):
    """Record the qualified name of every callback ``env`` pushes."""
    pushes, call_later = [], env.call_later

    def recorded(delay, callback, value=None, priority=NORMAL):
        pushes.append(callback.__qualname__)
        return call_later(delay, callback, value, priority)

    env.call_later = recorded
    return pushes


def _released_at_half_second(rows):
    """Arm ``rows`` (an encode of 0.5 s on node 0, then its dependents)
    and step up to the encode's completion entry, recording pushes."""
    env, fabric, gpus, engines, _ = make_world(2, gbps=8.0)  # 1 GB/s
    graph = build(env, rows)
    pushes = _recording_pushes(env)
    graph.arm(engines)
    while not graph.triggered[0]:
        env.step()
    del pushes[:]
    return env, fabric, graph, pushes


def test_a_send_released_into_an_empty_urgent_lane_issues_in_place():
    env, fabric, graph, pushes = _released_at_half_second([
        row(0, "encode", "enc", duration=0.5),
        row(0, "send", "snd", nbytes=1e9, dst=1, deps=[0])])
    env.step()  # the encode's completion entry releases the send
    assert graph.started_at[1] == 0.5
    assert fabric.nics[0].up_free == 1.5
    assert pushes == ["Fabric._deliver"]


def test_a_send_released_after_a_take_hop_keeps_its_issue_hop():
    """The take hop, pushed first, starts its kernel first: the kernel's
    finish is pushed before the send's delivery, at the same instant."""
    env, fabric, graph, pushes = _released_at_half_second([
        row(0, "encode", "enc", duration=0.5),
        row(0, "decode", "dec", duration=1.0, deps=[0]),
        row(0, "send", "snd", nbytes=1e9, dst=1, deps=[0])])
    env.step()
    assert graph.started_at[2] != graph.started_at[2]  # NaN: not issued
    assert pushes == ["NodeEngine._comp_take", "NodeEngine._issue_send"]
    while not graph.settled:
        env.step()
    assert pushes[2:4] == ["Gpu._finish", "Fabric._deliver"]
    assert graph.finished_at[1] == graph.finished_at[2] == 1.5


def test_coordinator_validation():
    env = Environment()
    fabric = Fabric(env, 2, NetworkSpec(bandwidth_gbps=10))
    with pytest.raises(ValueError):
        Coordinator(env, fabric, size_threshold=0)
    with pytest.raises(ValueError):
        Coordinator(env, fabric, timeout_s=0)


@pytest.mark.parametrize("value", [math.nan, 0.0, -1.0])
def test_coordinator_rejects_a_size_threshold_that_never_flushes(value):
    """A NaN threshold compares false to every queue total, so it would
    never flush by size; zero or less would flush every send alone."""
    env = Environment()
    fabric = Fabric(env, 2, NetworkSpec(bandwidth_gbps=10))
    with pytest.raises(ValueError, match="size_threshold"):
        Coordinator(env, fabric, size_threshold=value)


def test_coordinator_accepts_an_infinite_size_threshold():
    """``inf`` is a policy: batches flush on the timeout alone."""
    env = Environment()
    fabric = Fabric(env, 2, NetworkSpec(bandwidth_gbps=10))
    coordinator = Coordinator(env, fabric, size_threshold=math.inf)
    assert coordinator.size_threshold == math.inf


@pytest.mark.parametrize("value", [math.nan, 0.0, -1.0, math.inf])
def test_coordinator_rejects_a_timeout_that_is_not_a_finite_delay(value):
    """A NaN timeout would raise from ``call_later`` at the first tick,
    mid-round; an infinite one would tick at ``inf``."""
    env = Environment()
    fabric = Fabric(env, 2, NetworkSpec(bandwidth_gbps=10))
    with pytest.raises(ValueError, match="timeout"):
        Coordinator(env, fabric, timeout_s=value)


# ------------------------------------------------------- executors: oracles
# Pinned from the generator executors (a Store-fed process per executor and
# a Resource per GPU stream), so any executor implementation must keep
# their exact timelines under halt, resume, fusion limits and slowdowns.

def _timeline(graph):
    return [(t.label, t.started_at, t.finished_at) for t in tasks(graph)]


def _labels(graph, tasks):
    return [graph.recipe.labels[k] for k in tasks]


def _halt_world():
    env, fabric, gpus, engines, _ = make_world(1)
    graph = build(env, [row(0, "encode", label, duration=1.0)
                        for label in ("e0", "e1", "e2")]
                  + [row(0, "cpu", label, duration=1.0)
                     for label in ("c0", "c1")])
    return env, graph, engines[0]


def test_halt_strands_queued_tasks_and_lets_running_ones_finish():
    env, graph, engine = _halt_world()
    graph.arm([engine])
    env.run(until=0.5)  # e0 on the GPU stream, c0 on the CPU
    stranded = engine.halt()
    env.run()
    assert _labels(graph, stranded) == ["e1", "e2", "c1"]
    assert _labels(graph, engine.orphans) == ["e1", "e2", "c1"]
    assert not graph.finished
    assert _timeline(graph) == [("e0", 0.0, 1.0), ("e1", None, None),
                                ("e2", None, None), ("c0", 0.0, 1.0),
                                ("c1", None, None)]
    assert engine.compute_busy == 1.0 and engine.cpu_busy == 1.0


def test_resume_redispatches_orphans_in_stranding_order():
    env, graph, engine = _halt_world()
    graph.arm([engine])
    env.run(until=0.5)
    engine.halt()
    env.run()
    engine.resume()
    assert engine.orphans == []
    env.run()
    assert graph.settled and graph.error is None and env.now == 3.0
    assert _timeline(graph) == [("e0", 0.0, 1.0), ("e1", 1.0, 2.0),
                                ("e2", 2.0, 3.0), ("c0", 0.0, 1.0),
                                ("c1", 1.0, 2.0)]


def test_halt_while_a_take_is_pending_orphans_the_taken_task_last():
    env, graph, engine = _halt_world()
    graph.arm([engine])
    env.step()  # the compute executor starts and takes e0
    stranded = engine.halt()
    env.run()
    assert _labels(graph, stranded) == ["e1", "e2", "c0", "c1"]
    assert _labels(graph, engine.orphans) == ["e1", "e2", "c0", "c1", "e0"]
    assert all(t.started_at is None for t in tasks(graph))
    assert env.now == 0.0
    engine.resume()
    env.run()
    assert graph.settled and env.now == 3.0
    assert _timeline(graph) == [("e0", 2.0, 3.0), ("e1", 0.0, 1.0),
                                ("e2", 1.0, 2.0), ("c0", 0.0, 1.0),
                                ("c1", 1.0, 2.0)]


def test_halt_mid_fused_kernel_finishes_the_batch():
    env, fabric, gpus, engines, _ = make_world(1)
    graph = build(env, [row(0, "encode", f"k{i}", duration=0.5,
                            launch_overhead=0.25, nbytes=100)
                        for i in range(3)], bulk=True)
    graph.arm(engines)
    env.run(until=0.25)
    assert engines[0].halt() == []
    env.run()
    assert graph.settled and env.now == 1.0
    assert _timeline(graph) == [("k0", 0.0, 1.0), ("k1", 0.0, 1.0),
                                ("k2", 0.0, 1.0)]
    assert gpus[0].log.intervals == ((0.0, 1.0, "compression"),)


def test_fusion_stops_at_the_batch_byte_limit():
    env, fabric, gpus, engines, _ = make_world(1)
    env.telemetry = tel = TelemetryCollector()
    mb = 1 << 20
    graph = build(env, [
        row(0, "encode", f"k{i}", duration=duration, launch_overhead=launch,
            nbytes=100 * mb)
        for i, (duration, launch) in enumerate([(0.5, 0.125), (0.75, 0.25),
                                                (1.0, 0.125), (0.25, 0.125),
                                                (0.5, 0.0625)])], bulk=True)
    assert NodeEngine.BATCH_LIMIT_BYTES == 256 * mb
    finish = run_graph(env, graph, engines)
    # 300 MB reaches the limit after the third task: k0-k2 fuse, then
    # k3-k4, each paying the largest launch overhead once.
    assert finish == 2.6875
    assert _timeline(graph) == [("k0", 0.0, 2.0), ("k1", 0.0, 2.0),
                                ("k2", 0.0, 2.0), ("k3", 2.0, 2.6875),
                                ("k4", 2.0, 2.6875)]
    assert gpus[0].log.intervals == ((0.0, 2.0, "compression"),
                                     (2.0, 2.6875, "compression"))
    spans = {s.name: s for s in tel.spans if s.category == "encode"}
    assert {name: s.attrs.get("fused") for name, s in spans.items()} == {
        "k0": 3, "k1": 3, "k2": 3, "k3": 2, "k4": 2}
    kernels = [(s.start, s.end, s.parent_id) for s in tel.spans
               if s.category == "kernel"]
    assert kernels == [(0.0, 2.0, spans["k0"].id),
                       (2.0, 2.6875, spans["k3"].id)]


def test_fused_duration_is_a_left_fold():
    """A fused launch lasts the left fold of its tasks' work plus one
    launch overhead, on every Python: from 3.12, ``sum`` of floats rounds
    differently (``sum([0.1] * 10)`` is 1.0 there)."""
    env, fabric, gpus, engines, _ = make_world(1)
    graph = build(env, [row(0, "encode", f"k{i}", duration=0.1, nbytes=100)
                        for i in range(10)], bulk=True)
    run_graph(env, graph, engines)
    work = 0.0
    for task in tasks(graph):
        work += task.duration
    assert work == 0.9999999999999999  # the durations do not sum exactly
    assert {t.finished_at for t in tasks(graph)} == {work}
    assert gpus[0].log.intervals == ((0.0, work, "compression"),)


@pytest.mark.parametrize("at,timeline", [
    # Applied at t=0 after the dispatch, in the injector's start hop,
    # which runs before the executor's first take hop starts a's kernel:
    # both kernels run slowed.
    (0.0, [("a", 0.0, 2.0), ("b", 2.0, 4.0)]),
    # Applied at t=1, just before a's finish takes b: a ran at full
    # speed, b starts slowed.
    (1.0, [("a", 0.0, 1.0), ("b", 1.0, 3.0)]),
])
def test_gpu_slowdown_between_dispatch_and_grant(at, timeline):
    env, fabric, gpus, engines, _ = make_world(1)
    graph = build(env, [row(0, "encode", "a", duration=1.0),
                        row(0, "encode", "b", duration=1.0)])
    graph.arm(engines)
    FaultInjector(env, FaultSchedule.of(
        GpuSlowdown(at=at, node=0, factor=2.0)), gpus=gpus, engines=engines)
    env.run()
    assert graph.settled
    assert _timeline(graph) == timeline
