"""Property-based tests for the CaSync task system.

Random DAGs over random clusters must always complete, never violate
dependency ordering, and never finish before their critical path.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.casync import Coordinator, NodeEngine, run_graph
from repro.gpu import Gpu, V100
from repro.net import Fabric, NetworkSpec
from repro.sim import Environment
from tests.taskgraph_rows import build, join, row, tasks


def build_world(num_nodes, coordinator=False):
    env = Environment()
    fabric = Fabric(env, num_nodes,
                    NetworkSpec(bandwidth_gbps=10.0, latency_us=1.0))
    gpus = [Gpu(env, V100, i) for i in range(num_nodes)]
    coord = Coordinator(env, fabric) if coordinator else None
    engines = [NodeEngine(env, i, gpus[i], fabric, coordinator=coord)
               for i in range(num_nodes)]
    return env, fabric, engines


@st.composite
def random_dag(draw):
    """A random task DAG: each row (a task, or a join with no task)
    depends on a subset of earlier rows."""
    num_nodes = draw(st.integers(1, 4))
    num_tasks = draw(st.integers(1, 25))
    specs = []
    for i in range(num_tasks):
        node = draw(st.integers(0, num_nodes - 1))
        kind = draw(st.sampled_from(
            ["encode", "decode", "merge", "cpu", "send", "join"]))
        duration = draw(st.floats(0.0, 0.01))
        nbytes = draw(st.integers(0, 1 << 20))
        dst = None
        if kind == "send":
            dst = draw(st.integers(0, num_nodes - 1))
        max_deps = min(i, 3)
        deps = sorted(draw(st.sets(st.integers(0, i - 1),
                                   max_size=max_deps))) if i else []
        bulk = draw(st.booleans()) if kind == "send" else False
        specs.append((node, kind, duration, nbytes, dst, deps, bulk))
    return num_nodes, specs


def materialize(env, specs, bulk=False):
    graph = build(env, [
        join(deps) if kind == "join" else
        row(node, kind, f"t{i}", duration=duration,
            launch_overhead=min(duration, 1e-5), nbytes=nbytes, dst=dst,
            bulk=send_bulk, deps=deps)
        for i, (node, kind, duration, nbytes, dst, deps, send_bulk)
        in enumerate(specs)], bulk=bulk)
    return graph


def row_times(graph):
    """(started_at, finished_at) of every row; a join does both at its
    release instant."""
    times = []
    records = tasks(graph)
    for i, k in enumerate(graph.csr.slot):
        if k >= 0:
            times.append((records[k].started_at, records[k].finished_at))
        else:
            times.append((graph.joined_at[i],) * 2)
    return times


@given(dag=random_dag(), coordinator=st.booleans(),
       batching=st.booleans())
@settings(max_examples=60, deadline=None)
def test_random_dag_always_completes(dag, coordinator, batching):
    num_nodes, specs = dag
    env, fabric, engines = build_world(num_nodes, coordinator)
    graph = materialize(env, specs, bulk=batching)
    finish = run_graph(env, graph, engines)
    assert finish >= 0
    # The graph settles only once every task's completion entry has run.
    assert graph.settled and graph.error is None
    for task in tasks(graph):
        assert task.triggered and task.error is None, task
    assert not any(math.isnan(start) for start, _ in row_times(graph))
    assert graph.num_tasks + graph.csr.slot.count(-1) == len(specs)


@given(dag=random_dag())
@settings(max_examples=60, deadline=None)
def test_dependencies_never_violated(dag):
    num_nodes, specs = dag
    env, fabric, engines = build_world(num_nodes)
    graph = materialize(env, specs)
    run_graph(env, graph, engines)
    times = row_times(graph)
    for i, (node, kind, duration, nbytes, dst, deps, bulk) in enumerate(specs):
        started = times[i][0]
        for d in deps:
            finished = times[d][1]
            if started is not None and finished is not None:
                assert started >= finished - 1e-12


@given(dag=random_dag())
@settings(max_examples=40, deadline=None)
def test_finish_at_least_critical_path(dag):
    """Simulated finish time can never beat the DAG's duration-only
    critical path (transfers only add to it)."""
    num_nodes, specs = dag
    env, fabric, engines = build_world(num_nodes)
    graph = materialize(env, specs)
    finish = run_graph(env, graph, engines)

    longest = [0.0] * len(specs)
    for i, (node, kind, duration, nbytes, dst, deps, bulk) in enumerate(specs):
        base = max((longest[d] for d in deps), default=0.0)
        # Only compute/cpu kinds consume their declared duration; sends are
        # timed by the fabric and a join is instant.
        cost = duration if kind in ("encode", "decode", "merge", "copy",
                                    "cpu") else 0.0
        longest[i] = base + cost
    assert finish >= max(longest, default=0.0) - 1e-9


@given(dag=random_dag())
@settings(max_examples=40, deadline=None)
def test_fabric_accounting_conserves_bytes(dag):
    """Every non-loopback send's bytes appear exactly once in the stats."""
    num_nodes, specs = dag
    env, fabric, engines = build_world(num_nodes)
    graph = materialize(env, specs)
    run_graph(env, graph, engines)
    expected = sum(nbytes for (node, kind, dur, nbytes, dst, deps, bulk)
                   in specs
                   if kind == "send" and dst != node and not bulk)
    # Bulk sends go through the coordinator only when one exists (none
    # here), so they transfer directly too.
    expected += sum(nbytes for (node, kind, dur, nbytes, dst, deps, bulk)
                    in specs
                    if kind == "send" and dst != node and bulk)
    assert fabric.stats.bytes_sent == pytest.approx(expected)
