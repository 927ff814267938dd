"""Tests for GPU communication-buffer memory accounting."""

import pytest

from repro.algorithms import OneBit
from repro.analysis.plancheck import golden_cases, golden_model
from repro.casync import NodeEngine, run_graph
from repro.casync.memory import buffer_lifetimes, peak_buffer_memory
from repro.cluster import ec2_v100_cluster, hetero_mixed_cluster
from repro.gpu import Gpu, V100
from repro.models import GradientSpec, ModelSpec
from repro.net import Fabric, NetworkSpec
from repro.sim import Environment
from repro.strategies import BytePSOSSCompression, CaSyncPS
from repro.strategies.base import SyncContext
from tests.taskgraph_rows import build, join, make_all_ready, row, tasks

MB = 1024 * 1024


def run_simple_graph(rows):
    env = Environment()
    fabric = Fabric(env, 2, NetworkSpec(bandwidth_gbps=100))
    engines = [NodeEngine(env, i, Gpu(env, V100, i), fabric)
               for i in range(2)]
    graph = build(env, rows)
    run_graph(env, graph, engines)
    return graph


def test_lifetime_spans_until_last_consumer():
    graph = run_simple_graph([
        row(0, "encode", "p", duration=1.0, out_nbytes=100),
        row(0, "merge", "c1", duration=1.0, deps=[0]),
        row(0, "merge", "c2", duration=1.0, deps=[0])])
    lifetimes = buffer_lifetimes(graph)
    assert len(lifetimes) == 1
    node, alloc, free, nbytes = lifetimes[0]
    assert (node, nbytes) == (0, 100)
    assert alloc == pytest.approx(1.0)
    assert free == pytest.approx(3.0)  # c1, c2 serialize on the stream


def test_peak_counts_overlapping_buffers():
    graph = run_simple_graph([
        row(0, "encode", "a", duration=1.0, out_nbytes=100),
        row(0, "encode", "b", duration=1.0, out_nbytes=50),
        row(0, "merge", "join", duration=1.0, deps=[0, 1])])
    assert peak_buffer_memory(graph)[0] == pytest.approx(150)


def test_non_overlapping_buffers_reuse():
    graph = run_simple_graph([
        row(0, "encode", "a", duration=1.0, out_nbytes=100),
        row(0, "merge", "ua", duration=1.0, deps=[0]),
        row(0, "encode", "b", duration=1.0, out_nbytes=100, deps=[1]),
        row(0, "merge", "ub", duration=1.0, deps=[2])])
    assert peak_buffer_memory(graph)[0] == pytest.approx(100)


def test_join_consumer_frees_at_its_release():
    # The producer's only consumer is a join, which also waits on a
    # later task: the buffer lives until the join releases.
    graph = run_simple_graph([
        row(0, "encode", "p", duration=1.0, out_nbytes=100),
        row(1, "encode", "slow", duration=3.0),
        join(deps=[0, 1]),
        row(0, "merge", "after", duration=1.0, deps=[2])])
    assert graph.joined_at[2] == 3.0
    assert buffer_lifetimes(graph) == [(0, 1.0, 3.0, 100.0)]
    assert peak_buffer_memory(graph) == {0: 100.0}


#: Per-node peak buffer bytes of the OSS golden cases, where a decode
#: that allocates its output feeds a ``done:`` barrier (now a join).
OSS_GOLDEN_PEAKS = {
    "byteps-oss/onebit/n4": {0: 19005440.0, 1: 18907136.0,
                             2: 11489280.0, 3: 11489280.0},
    "byteps-oss/dgc/n4": {0: 17895424.0, 1: 17731584.0,
                          2: 11489280.0, 3: 11489280.0},
    "byteps-oss/tbq/n4": {0: 19005440.0, 1: 18907136.0,
                          2: 11489280.0, 3: 11489280.0},
}


@pytest.mark.parametrize("case", sorted(OSS_GOLDEN_PEAKS))
def test_oss_golden_peaks_are_pinned(case):
    strategy, algo = {c.name: c for c in golden_cases()}[case].inputs()
    graph = _executed_graph(strategy, golden_model(), ec2_v100_cluster(4),
                            algo)
    decodes = {t.row for t in tasks(graph)
               if t.kind == "decode" and t.out_nbytes}
    assert any(graph.csr.slot[j] < 0 for i in decodes
               for j in graph.csr.successors(i))
    assert peak_buffer_memory(graph) == OSS_GOLDEN_PEAKS[case]


def test_unexecuted_graph_rejected():
    env = Environment()
    graph = build(env, [row(0, "encode", "x", out_nbytes=10)])
    with pytest.raises(ValueError, match="timestamps"):
        buffer_lifetimes(graph)


def _executed_graph(strategy, model, cluster, algo):
    env = Environment()
    fabric = Fabric(env, cluster.num_nodes, cluster.network)
    gpus = [Gpu(env, cluster.node_at(i).gpu, i)
            for i in range(cluster.num_nodes)]
    engines = [NodeEngine(env, i, gpus[i], fabric)
               for i in range(cluster.num_nodes)]
    ctx = SyncContext(env=env, cluster=cluster, algorithm=algo)
    graph = strategy.build(ctx, model)
    make_all_ready(graph, model, cluster.num_nodes)
    run_graph(env, graph, engines)
    return graph


def _strategy_peak(strategy, model, cluster, algo):
    graph = _executed_graph(strategy, model, cluster, algo)
    return max(peak_buffer_memory(graph).values())


def _all_edges_oracle(graph):
    """Lifetimes and per-node peaks from a sweep over every dependency
    edge of every row, then the same alloc/free sweep.  A join row
    finishes at its release instant."""
    slot, records = graph.csr.slot, tasks(graph)
    finished = [records[k].finished_at if k >= 0 else graph.joined_at[i]
                for i, k in enumerate(slot)]
    consumed = {}
    csr = graph.csr
    for i in range(len(csr)):
        for j in csr.dep_rows[csr.dep_ptr[i]:csr.dep_ptr[i + 1]]:
            if j >= 0:  # a row, not a ready ref
                consumed.setdefault(j, []).append(finished[i])
    lifetimes = []
    events = {}
    for task in tasks(graph):
        if not task.out_nbytes or task.out_nbytes <= 0:
            continue
        free = max([task.finished_at] + [
            at for at in consumed.get(task.row, ()) if at is not None])
        nbytes = float(task.out_nbytes)
        lifetimes.append((task.node, task.finished_at, free, nbytes))
        events.setdefault(task.node, []).extend(
            [(task.finished_at, nbytes), (free, -nbytes)])
    peaks = {}
    for node, node_events in events.items():
        current = peak = 0.0
        for _, delta in sorted(node_events):
            current += delta
            peak = max(peak, current)
        peaks[node] = peak
    return lifetimes, peaks


@pytest.mark.parametrize("case", ["byteps-oss", "casync-ps-hetero-mixed-8"])
def test_buffer_accounting_matches_all_edges_oracle(case):
    """The producers-only CSR walk equals a brute-force all-edges sweep."""
    grads = tuple(GradientSpec(f"o.g{i}", s) for i, s in enumerate(
        (16 * MB, 4 * MB, 900 * 1024, 64 * 1024)))
    model = ModelSpec(name="oracle", gradients=grads, batch_size=8,
                      batch_unit="images", v100_iteration_s=0.01)
    algo = OneBit()
    if case == "byteps-oss":
        cluster = ec2_v100_cluster(4)
        graph = _executed_graph(BytePSOSSCompression(), model, cluster, algo)
    else:
        cluster = hetero_mixed_cluster(8)
        graph = _executed_graph(CaSyncPS(), model, cluster, algo)
    producers = [t for t in tasks(graph) if t.out_nbytes]
    assert len(producers) >= cluster.num_nodes
    assert any(t.kind == "copy" for t in producers) == (case == "byteps-oss")
    lifetimes, peaks = _all_edges_oracle(graph)
    # Some buffers outlive their first consumer, so the walk must reach
    # every consumer of a producer, not just one.
    assert any(free > alloc for _, alloc, free, _ in lifetimes)
    assert buffer_lifetimes(graph) == lifetimes
    assert peak_buffer_memory(graph) == peaks
    assert len(peaks) == cluster.num_nodes


def test_casync_uses_less_buffer_memory_than_oss():
    """§5's memory claim: OSS staging copies dominate; CaSync allocates
    mostly compressed-size buffers."""
    grads = (GradientSpec("m.g0", 64 * MB), GradientSpec("m.g1", 32 * MB))
    model = ModelSpec(name="m", gradients=grads, batch_size=8,
                      batch_unit="images", v100_iteration_s=0.01)
    cluster = ec2_v100_cluster(4)
    algo = OneBit()
    oss_peak = _strategy_peak(BytePSOSSCompression(), model, cluster, algo)
    casync_peak = _strategy_peak(CaSyncPS(), model, cluster, algo)
    assert casync_peak < oss_peak / 2
