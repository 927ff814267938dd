"""Additional edge-case tests for the simulation kernel and OSS strategies."""

import math

import pytest

from repro.algorithms import DGC, OneBit
from repro.cluster import ec2_v100_cluster
from repro.models import GradientSpec, ModelSpec
from repro.sim import Environment, URGENT
from repro.strategies import BytePSOSSCompression, RingOSSCompression
from repro.strategies.base import SyncContext
from repro.casync.tasks import NodeEngine, run_graph
from repro.gpu import Gpu, V100
from repro.net import Fabric
from tests.taskgraph_rows import make_all_ready, tasks

MB = 1024 * 1024


# ---------------------------------------------------------------- sim edges

def test_urgent_events_fire_before_normal_at_same_time():
    env = Environment()
    order = []
    env.call_later(0, order.append, "normal")  # scheduled first...
    env.call_later(0, order.append, "urgent", URGENT)  # ...but jumps it
    env.run()
    assert order == ["urgent", "normal"]


def test_timeout_zero_fires_immediately():
    env = Environment()
    seen = []
    env.call_later(0, lambda _value: seen.append(env.now))
    env.run()
    assert seen == [0]


# ---------------------------------------------------------------- OSS structure

def _build_graph(strategy, model, cluster, algo):
    env = Environment()
    fabric = Fabric(env, cluster.num_nodes, cluster.network)
    gpus = [Gpu(env, V100, i) for i in range(cluster.num_nodes)]
    engines = [NodeEngine(env, i, gpus[i], fabric)
               for i in range(cluster.num_nodes)]
    ctx = SyncContext(env=env, cluster=cluster, algorithm=algo)
    return ctx, strategy.build(ctx, model), engines


def tiny(sizes):
    grads = tuple(GradientSpec(f"x.g{i}", s) for i, s in enumerate(sizes))
    return ModelSpec(name="x", gradients=grads, batch_size=4,
                     batch_unit="images", v100_iteration_s=0.005)


def test_byteps_oss_server_work_is_on_cpu():
    model = tiny([8 * MB])
    cluster = ec2_v100_cluster(3)
    ctx, graph, engines = _build_graph(BytePSOSSCompression(), model,
                                       cluster, OneBit())
    kinds = {}
    for task in tasks(graph):
        kinds.setdefault(task.kind, 0)
        kinds[task.kind] += 1
    # Server-side decode/merge/encode run as host-CPU tasks.
    assert kinds.get("cpu", 0) > 0
    # Worker staging copies exist (the extra-memory-copy critique).
    assert kinds.get("copy", 0) >= 2 * cluster.num_nodes


def test_byteps_oss_worker_on_cpu_moves_encodes_to_cpu():
    model = tiny([8 * MB])
    cluster = ec2_v100_cluster(2)
    gpu_ctx, gpu_graph, _ = _build_graph(BytePSOSSCompression(), model,
                                         cluster, OneBit())
    cpu_ctx, cpu_graph, _ = _build_graph(
        BytePSOSSCompression(worker_on_cpu=True), model, cluster, OneBit())
    gpu_encodes = sum(1 for t in tasks(gpu_graph) if t.kind == "encode")
    cpu_encodes = sum(1 for t in tasks(cpu_graph) if t.kind == "encode")
    assert cpu_encodes < gpu_encodes  # they became 'cpu' tasks


def test_ring_oss_serializes_gradients():
    """Horovod-style op serialization: each gradient's allgather depends on
    the previous gradient finishing (prev_done chaining)."""
    model = tiny([2 * MB, 2 * MB])
    cluster = ec2_v100_cluster(3)
    ctx, graph, engines = _build_graph(RingOSSCompression(), model,
                                       cluster, DGC(rate=0.01))
    make_all_ready(graph, model, cluster.num_nodes)
    run_graph(ctx.env, graph, engines)
    # First gradient's done barriers strictly precede the second's sends.
    # Each node's ``done:x.g0`` barrier is a join on its last g0 merge,
    # so it releases when that merge (the node's last g0 task) finishes.
    assert not any(math.isnan(graph.joined_at[i])
                   for i, k in enumerate(graph.csr.slot) if k < 0)
    g0_aggs = [t for t in tasks(graph) if t.label.startswith("agg:x.g0")]
    g1_sends = [t for t in tasks(graph) if t.label.startswith("ag:x.g1")]
    latest_done = max(t.finished_at for t in g0_aggs)
    earliest_send = min(t.finished_at for t in g1_sends)
    assert earliest_send >= latest_done - 1e-12


def test_ring_oss_single_node_noop():
    model = tiny([MB])
    cluster = ec2_v100_cluster(1)
    ctx, graph, engines = _build_graph(RingOSSCompression(), model,
                                       cluster, DGC(rate=0.01))
    make_all_ready(graph, model, cluster.num_nodes)
    assert run_graph(ctx.env, graph, engines) == 0.0
