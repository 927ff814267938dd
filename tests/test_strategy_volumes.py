"""Wire-volume conservation tests for every synchronization strategy.

Each strategy's task graph must transfer exactly the bytes its protocol
prescribes -- these tests pin the analytic totals against the simulated
fabric's accounting, catching any structural bug in graph construction
(missing hops, double sends, wrong partition sizes).
"""

import pytest

from repro.algorithms import OneBit
from repro.casync.decisions import DecisionMap, GradientDecision
from repro.casync.tasks import NodeEngine, run_graph
from repro.cluster import ec2_v100_cluster
from repro.gpu import Gpu, V100
from repro.models import GradientSpec, ModelSpec
from repro.net import Fabric
from repro.sim import Environment
from repro.strategies import (
    BytePS,
    BytePSOSSCompression,
    CaSyncPS,
    CaSyncRing,
    RingAllreduce,
    RingOSSCompression,
)
from repro.strategies.base import SyncContext
from repro.training import make_plans
from tests.taskgraph_rows import make_all_ready, tasks

MB = 1024 * 1024


def run_strategy(strategy, sizes, num_nodes, algo=None):
    grads = tuple(GradientSpec(f"v.g{i}", s) for i, s in enumerate(sizes))
    model = ModelSpec(name="v", gradients=grads, batch_size=4,
                      batch_unit="images", v100_iteration_s=0.001)
    cluster = ec2_v100_cluster(num_nodes)
    env = Environment()
    fabric = Fabric(env, num_nodes, cluster.network)
    gpus = [Gpu(env, V100, i) for i in range(num_nodes)]
    engines = [NodeEngine(env, i, gpus[i], fabric)
               for i in range(num_nodes)]
    ctx = SyncContext(env=env, cluster=cluster, algorithm=algo)
    graph = strategy.build(ctx, model)
    make_all_ready(graph, model, num_nodes)
    run_graph(env, graph, engines)
    return model, fabric.stats.bytes_sent


def test_ring_moves_bandwidth_optimal_volume():
    """Ring allreduce: 2(N-1) steps x N senders x (total/N) bytes."""
    n = 4
    model, sent = run_strategy(RingAllreduce(), [32 * MB, 16 * MB], n)
    expected = 2 * (n - 1) * model.total_nbytes  # per-step all n nodes send total/n
    assert sent == pytest.approx(expected, rel=1e-6)


def test_byteps_moves_push_pull_volume():
    """BytePS co-located: every worker pushes all non-local slices and
    pulls them back: 2 x (N-1)/N x total x N."""
    n = 4
    model, sent = run_strategy(BytePS(), [32 * MB, 16 * MB], n)
    expected = 2 * (n - 1) * model.total_nbytes
    assert sent == pytest.approx(expected, rel=1e-6)


def test_byteps_oss_moves_compressed_volume():
    """OSS compression shrinks the wire volume by ~the compression rate."""
    n = 4
    algo = OneBit()
    model, sent = run_strategy(BytePSOSSCompression(), [32 * MB], n,
                               algo=algo)
    raw = 2 * (n - 1) * model.total_nbytes
    rate = algo.compression_rate(model.total_nbytes // 4)
    assert sent == pytest.approx(raw * rate, rel=0.05)


def test_ring_oss_allgather_volume():
    """Compressed allgather: every node forwards n-1 compressed buffers."""
    n = 4
    algo = OneBit()
    model, sent = run_strategy(RingOSSCompression(), [8 * MB], n, algo=algo)
    compressed = algo.compressed_nbytes(model.total_nbytes // 4)
    expected = n * (n - 1) * compressed
    assert sent == pytest.approx(expected, rel=1e-6)


def test_casync_ps_volume_matches_plan():
    """CaSync-PS: per compressed partition, (N-1) pushes + (N-1) pulls of
    the partition's compressed size."""
    n = 4
    algo = OneBit()
    strategy = CaSyncPS(bulk=False)
    model, sent = run_strategy(strategy, [32 * MB], n, algo=algo)
    cluster = ec2_v100_cluster(n)
    plans = make_plans(model, cluster, algo, "ps_colocated")
    expected = 0.0
    for plan in plans.values():
        part = plan.nbytes / plan.partitions
        wire = (algo.compressed_nbytes(max(1, int(part) // 4))
                if plan.compress else part)
        expected += plan.partitions * 2 * (n - 1) * wire
    assert sent == pytest.approx(expected, rel=1e-6)


def test_casync_ring_volume_matches_plan():
    """CaSync-Ring: per compressed chunk, (N-1) aggregation hops +
    (N-1) broadcast hops of the chunk's compressed size."""
    n = 4
    algo = OneBit()
    strategy = CaSyncRing(bulk=False)
    model, sent = run_strategy(strategy, [32 * MB], n, algo=algo)
    cluster = ec2_v100_cluster(n)
    plans = make_plans(model, cluster, algo, "ring")
    expected = 0.0
    for plan in plans.values():
        part = plan.nbytes / plan.partitions
        if plan.compress:
            wire = algo.compressed_nbytes(max(1, int(part) // 4))
            expected += plan.partitions * 2 * (n - 1) * wire
        else:
            expected += 2 * (n - 1) * plan.nbytes  # raw bucket ring
    assert sent == pytest.approx(expected, rel=1e-6)


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_ring_volume_scales_with_nodes(n):
    model, sent = run_strategy(RingAllreduce(), [8 * MB], n)
    assert sent == pytest.approx(2 * (n - 1) * model.total_nbytes,
                                 rel=1e-6)


def test_compression_shrinks_casync_wire_bytes():
    n = 4
    algo = OneBit()
    _, raw_sent = run_strategy(RingAllreduce(), [64 * MB], n)
    _, comp_sent = run_strategy(CaSyncRing(bulk=False), [64 * MB], n,
                                algo=algo)
    assert comp_sent < raw_sent / 10


# ---------------------------------------------------------------------------
# Differential tests: numeric protocol semantics vs serial references.
#
# The graphs above carry costs, not values; repro.strategies.semantics
# executes each protocol's decode-merge-encode dataflow with the real
# codecs.  Here every strategy x every registered algorithm is checked
# against an independent straight-line reference (dumb loops, no shared
# partitioning/topology helpers), within fp32 tolerance.  Stochastic
# codecs (terngrad) match bit-for-bit because both sides perform encodes
# in the same canonical order from fresh same-seed instances.
# ---------------------------------------------------------------------------

import math

import numpy as np

from repro.algorithms import available_algorithms, get_algorithm
from repro.casync.planner import GradientPlan
from repro.strategies import semantics as sem

N_DIFF = 4
#: (name, element count); the odd size stresses split boundaries.
DIFF_GRADS = (("v.g0", 513), ("v.g1", 200))


def _worker_grads(seed=0, num_nodes=N_DIFF, grads=DIFF_GRADS):
    rng = np.random.default_rng(seed)
    return {name: [rng.standard_normal(size).astype(np.float32) * 0.1
                   for _ in range(num_nodes)]
            for name, size in grads}


def _rt(algo, x):
    if algo is None:
        return np.asarray(x, dtype=np.float32)
    return algo.decode(algo.encode(np.asarray(x, dtype=np.float32)))


def _serial_sum(grads):
    """The ideal allreduce value, in float64 to bound fp32 reorder noise."""
    return np.sum(np.stack([g.astype(np.float64) for g in grads]), axis=0)


def _ps_reference(worker_grads, algo, num_parts):
    """Serial decode-merge-encode per slice: (merged, redistributed)."""
    merged_out, redist_out = {}, {}
    for name, grads in worker_grads.items():
        k = num_parts[name]
        slices = [np.array_split(g, k) for g in grads]
        merged_parts, redist_parts = [], []
        for p in range(k):
            decoded = [_rt(algo, slices[w][p]) for w in range(len(grads))]
            merged = decoded[0]
            for d in decoded[1:]:
                merged = merged + d
            merged_parts.append(merged)
            redist_parts.append(_rt(algo, merged))
        merged_out[name] = np.concatenate(merged_parts)
        redist_out[name] = np.concatenate(redist_parts)
    return merged_out, redist_out


def test_differential_byteps_raw_matches_serial_sum():
    wg = _worker_grads()
    values = sem.strategy_values(BytePS(), wg)
    for name, grads in wg.items():
        ideal = _serial_sum(grads)
        for node_value in values[name]:
            np.testing.assert_allclose(node_value, ideal, rtol=1e-5,
                                       atol=1e-6)


def test_differential_ring_raw_matches_serial_sum():
    wg = _worker_grads(seed=1)
    values = sem.strategy_values(RingAllreduce(), wg)
    for name, grads in wg.items():
        ideal = _serial_sum(grads)
        for node_value in values[name]:
            np.testing.assert_allclose(node_value, ideal, rtol=1e-5,
                                       atol=1e-6)
        # the allgather broadcasts one buffer: nodes agree bitwise
        for node_value in values[name][1:]:
            np.testing.assert_array_equal(node_value, values[name][0])


@pytest.mark.parametrize("algo_name", available_algorithms())
def test_differential_byteps_oss_matches_reference(algo_name):
    wg = _worker_grads(seed=2)
    values = sem.strategy_values(BytePSOSSCompression(),
                                 wg, algo=get_algorithm(algo_name))
    num_parts = {name: max(1, math.ceil(g[0].nbytes / (4 * 1024 * 1024)))
                 for name, g in wg.items()}
    _, redistributed = _ps_reference(wg, get_algorithm(algo_name), num_parts)
    for name in wg:
        for node_value in values[name]:
            np.testing.assert_allclose(node_value, redistributed[name],
                                       rtol=1e-5, atol=1e-6)


@pytest.mark.parametrize("algo_name", available_algorithms())
def test_differential_casync_ps_matches_reference(algo_name):
    wg = _worker_grads(seed=3)
    plans = {name: GradientPlan(name, g[0].nbytes, True, 3, 0.0)
             for name, g in wg.items()}
    values = sem.strategy_values(CaSyncPS(bulk=False), wg,
                                 algo=get_algorithm(algo_name), plans=plans)
    merged, redistributed = _ps_reference(
        wg, get_algorithm(algo_name), {name: 3 for name in wg})
    # Mirror the builder's global round-robin: partition p of gradient i
    # lands on aggregator (3*i + p) mod n, which keeps its dense merged
    # value; every other node decodes the re-encoded aggregate.
    agg_rr = 0
    for name, grads in wg.items():
        k = 3
        boundaries = np.cumsum(
            [s.size for s in np.array_split(grads[0], k)])[:-1]
        merged_parts = np.split(merged[name], boundaries)
        redist_parts = np.split(redistributed[name], boundaries)
        expect = [[] for _ in range(N_DIFF)]
        for p in range(k):
            aggregator = agg_rr % N_DIFF
            agg_rr += 1
            for node in range(N_DIFF):
                expect[node].append(merged_parts[p] if node == aggregator
                                    else redist_parts[p])
        for node in range(N_DIFF):
            np.testing.assert_allclose(values[name][node],
                                       np.concatenate(expect[node]),
                                       rtol=1e-5, atol=1e-6)


@pytest.mark.parametrize("algo_name", available_algorithms())
def test_differential_ring_oss_matches_reference(algo_name):
    wg = _worker_grads(seed=4)
    values = sem.strategy_values(RingOSSCompression(), wg,
                                 algo=get_algorithm(algo_name))
    ref_algo = get_algorithm(algo_name)
    for name, grads in wg.items():
        # no re-encode of the aggregate: sum of decoded origin buffers
        decoded = [_rt(ref_algo, g) for g in grads]
        expect = decoded[0]
        for d in decoded[1:]:
            expect = expect + d
        for node_value in values[name]:
            np.testing.assert_allclose(node_value, expect,
                                       rtol=1e-5, atol=1e-6)


@pytest.mark.parametrize("algo_name", available_algorithms())
def test_differential_casync_ring_matches_reference(algo_name):
    wg = _worker_grads(seed=5)
    plans = {name: GradientPlan(name, g[0].nbytes, True, 2, 0.0)
             for name, g in wg.items()}
    values = sem.strategy_values(CaSyncRing(bulk=False), wg,
                                 algo=get_algorithm(algo_name), plans=plans)
    ref_algo = get_algorithm(algo_name)
    n = N_DIFF
    for name, grads in wg.items():
        k = 2
        chunks = [np.array_split(g, k) for g in grads]
        expect = [[] for _ in range(n)]
        for c in range(k):
            # hop-wise requantized chain, plain modular arithmetic
            start = c % n
            partial = chunks[start][c]
            for step in range(1, n):
                partial = _rt(ref_algo, partial) + chunks[(start + step) % n][c]
            final_holder = (start + n - 1) % n
            broadcast = _rt(ref_algo, partial)
            for node in range(n):
                expect[node].append(partial if node == final_holder
                                    else broadcast)
        for node in range(n):
            np.testing.assert_allclose(values[name][node],
                                       np.concatenate(expect[node]),
                                       rtol=1e-5, atol=1e-6)


def test_differential_uncompressed_plan_takes_raw_path():
    """A compress=False plan must yield the plain (lossless) sum."""
    wg = _worker_grads(seed=6)
    plans = {name: GradientPlan(name, g[0].nbytes, False, 1, 0.0)
             for name, g in wg.items()}
    algo = get_algorithm("onebit")
    for strategy in (CaSyncPS(bulk=False), CaSyncRing(bulk=False)):
        values = sem.strategy_values(strategy, wg, algo=algo, plans=plans)
        for name, grads in wg.items():
            ideal = _serial_sum(grads)
            for node_value in values[name]:
                np.testing.assert_allclose(node_value, ideal,
                                           rtol=1e-5, atol=1e-6)


def _build_graph(strategy, grads, num_nodes, algo=None, decisions=None):
    """Build (without running) a strategy's graph for task-count checks."""
    model = ModelSpec(name="v", gradients=grads, batch_size=4,
                      batch_unit="images", v100_iteration_s=0.001)
    cluster = ec2_v100_cluster(num_nodes)
    ctx = SyncContext(env=Environment(), cluster=cluster, algorithm=algo,
                      decisions=decisions)
    return strategy.build(ctx, model)


def test_semantics_partitioning_matches_graph_structure():
    """The numeric model and the task graph agree on slice counts."""
    n = N_DIFF
    grads = tuple(GradientSpec(name, size * 4) for name, size in DIFF_GRADS)
    algo = OneBit()

    # BytePS-OSS: k slices per gradient -> k*(n-1) pushes, k*n encodes.
    part_bytes = 1024.0
    graph = _build_graph(BytePSOSSCompression(part_bytes=part_bytes),
                         grads, n, algo=algo)
    pushes = sum(1 for t in tasks(graph)
                 if t.kind == "send" and t.label.startswith("push:"))
    expected_k = sum(max(1, math.ceil(g.nbytes / part_bytes))
                     for g in grads)
    assert pushes == expected_k * (n - 1)

    # CaSync-PS with explicit 3-way decisions: per partition, n worker
    # encodes + 1 aggregate re-encode, and (n-1) pushes + (n-1) pulls.
    decisions = DecisionMap({g.name: GradientDecision(compress=True,
                                                      partitions=3)
                             for g in grads})
    graph = _build_graph(CaSyncPS(bulk=False),
                         grads, n, algo=algo, decisions=decisions)
    k_total = 3 * len(grads)
    encodes = sum(1 for t in tasks(graph) if t.kind == "encode")
    sends = sum(1 for t in tasks(graph) if t.kind == "send")
    assert encodes == k_total * (n + 1)
    assert sends == k_total * 2 * (n - 1)
