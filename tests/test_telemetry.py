"""Tests for repro.telemetry: collector, metrics, instrumentation contract.

The load-bearing guarantee is zero-cost-when-disabled: with no collector
attached, simulations must be bit-identical to an uninstrumented build
(results AND event-trace hashes).  With one attached, recorded spans must
reflect the simulation faithfully -- nesting via parent links, ordering
consistent with the task-graph dependencies that scheduled the work, and
one set of tracks per node.
"""

import pytest

from repro.algorithms import DGC, OneBit
from repro.cluster import ec2_v100_cluster
from repro.models import GradientSpec, ModelSpec
from repro.strategies import CaSyncPS, RingAllreduce, get_strategy
from repro.telemetry import (
    MetricsRegistry,
    TelemetryCollector,
    attach,
    current_collector,
    detach,
    telemetry_session,
)
from repro.training import simulate_iteration
from repro.training.trace import trace_hash, trace_iteration

MB = 1024 * 1024


def small_model(sizes=(MB, 256 * 1024, 64 * 1024)):
    grads = tuple(GradientSpec(f"m.g{i}", s) for i, s in enumerate(sizes))
    return ModelSpec(name="m", gradients=grads, batch_size=4,
                     batch_unit="images", v100_iteration_s=0.002)


def run_casync(telemetry=None, n=3):
    # No selective plans (the planner would skip compressing gradients this
    # small) and a sparsification codec: DGC's scatter-add aggregation
    # produces distinct merge tasks, so every pipeline stage -- encode,
    # transfer, merge, decode -- shows up on every node.
    return simulate_iteration(
        small_model(), ec2_v100_cluster(n), CaSyncPS(selective=False),
        algorithm=DGC(rate=0.01), telemetry=telemetry)


# -- collector primitives ---------------------------------------------------

def test_span_begin_finish_and_queries():
    tel = TelemetryCollector()
    parent = tel.begin("task", category="encode", track="node2/encode",
                       at=1.0, nbytes=123)
    child = tel.begin("kernel", category="kernel", track="node2/gpu-comm",
                      parent=parent, at=1.1)
    tel.finish(child, 1.4)
    tel.finish(parent, 1.5, outcome="ok")

    assert parent.node == 2 and child.node == 2
    assert child.parent_id == parent.id
    assert child.duration == pytest.approx(0.3)
    assert parent.attrs == {"nbytes": 123, "outcome": "ok"}
    assert tel.find_spans(track="node2/encode") == [parent]
    assert tel.find_spans(category="kernel", finished=True) == [child]
    assert tel.span_by_id(parent.id) is parent
    assert tel.tracks() == ["node2/encode", "node2/gpu-comm"]


def test_span_cannot_end_before_it_starts():
    tel = TelemetryCollector()
    span = tel.begin("x", at=2.0)
    with pytest.raises(ValueError, match="ends before"):
        tel.finish(span, 1.0)


def test_instants_and_unfinished_spans():
    tel = TelemetryCollector()
    tel.begin("open-span", at=0.5)
    rec = tel.instant("NodeCrash", category="fault", track="faults",
                      at=0.25, node=1)
    assert rec["attrs"] == {"node": 1}
    assert tel.find_spans(finished=False)[0].name == "open-span"
    assert tel.find_spans(finished=True) == []


def test_start_run_offsets_give_disjoint_timelines():
    tel = TelemetryCollector()
    tel.start_run("first")
    a = tel.finish(tel.begin("a", at=0.0), 1.0)
    tel.start_run("second")
    b = tel.finish(tel.begin("b", at=0.0), 0.5)
    assert a.run == 0 and b.run == 1
    assert b.start >= a.end           # second run starts past the first
    assert [r.label for r in tel.runs] == ["first", "second"]


def test_metrics_registry_identity_and_stats():
    reg = MetricsRegistry()
    c = reg.counter("net.bytes", node=0)
    c.inc(10)
    reg.counter("net.bytes", node=0).inc(5)       # same instance
    assert c.value == 15
    assert reg.counter("net.bytes", node=1) is not c
    with pytest.raises(ValueError):
        c.inc(-1)

    g = reg.gauge("ratio")
    g.set(0.5)
    g.set(0.75)
    assert g.value == 0.75

    h = reg.histogram("lat")
    for v in (1.0, 3.0, 2.0):
        h.observe(v)
    assert (h.count, h.total, h.min, h.max) == (3, 6.0, 1.0, 3.0)
    assert h.mean == pytest.approx(2.0)

    rows = reg.snapshot()
    assert [r["name"] for r in rows] == ["net.bytes", "net.bytes",
                                         "ratio", "lat"]
    assert rows[0]["labels"] == {"node": 0}


# -- ambient attachment -----------------------------------------------------

def test_attach_detach_nesting_and_validation():
    assert current_collector() is None
    outer = attach()
    inner = TelemetryCollector()
    attach(inner)
    assert current_collector() is inner
    with pytest.raises(ValueError):
        detach(outer)                  # not the active one
    detach(inner)
    assert current_collector() is outer
    detach(outer)
    assert current_collector() is None


def test_telemetry_session_detaches_on_exception():
    with pytest.raises(RuntimeError):
        with telemetry_session() as tel:
            assert current_collector() is tel
            raise RuntimeError("boom")
    assert current_collector() is None


# -- zero-cost-when-disabled ------------------------------------------------

def test_attached_collector_leaves_results_bit_identical():
    baseline = run_casync(telemetry=None)
    tel = TelemetryCollector()
    observed = run_casync(telemetry=tel)
    assert tel.spans                    # telemetry actually recorded
    assert observed == baseline         # ...without perturbing the run


def test_attached_collector_leaves_trace_hash_unchanged():
    model = small_model()
    cluster = ec2_v100_cluster(3)
    baseline = trace_hash(trace_iteration(model, cluster, RingAllreduce()))
    with telemetry_session() as tel:
        traced = trace_hash(trace_iteration(model, cluster, RingAllreduce()))
    assert tel.spans
    assert traced == baseline


# -- instrumentation through the real simulation ----------------------------

def test_casync_spans_cover_pipeline_and_nodes():
    tel = TelemetryCollector()
    run_casync(telemetry=tel, n=3)
    tracks = set(tel.tracks())
    for node in range(3):
        for kind in ("encode", "merge", "decode", "transfer"):
            assert f"node{node}/{kind}" in tracks, (node, kind, tracks)
    assert tel.find_spans(category="kernel", finished=True)
    assert tel.find_spans(category="coordinator", finished=True)
    # every transfer span carries its byte count
    for span in tel.find_spans(category="transfer", finished=True):
        assert span.attrs["nbytes"] > 0


def test_span_ordering_respects_task_graph_dependencies():
    tel = TelemetryCollector()
    run_casync(telemetry=tel, n=3)
    assert tel.task_deps, "TaskGraph.arm should register the DAG"
    by_task = {}
    for span in tel.spans:
        task_id = span.attrs.get("task")
        if task_id is not None and span.finished:
            by_task[task_id] = span
    assert by_task
    checked = 0
    for task_id, deps in tel.task_deps.items():
        span = by_task.get(task_id)
        if span is None:
            continue
        for dep_id in deps:
            dep_span = by_task.get(dep_id)
            if dep_span is None:
                continue
            assert dep_span.end <= span.start + 1e-9, (
                f"task {task_id} started before its dependency "
                f"{dep_id} finished")
            checked += 1
    assert checked > 0


def test_kernel_spans_parented_to_task_spans():
    tel = TelemetryCollector()
    run_casync(telemetry=tel, n=3)
    kernels = [s for s in tel.find_spans(category="kernel", finished=True)
               if s.parent_id is not None]
    assert kernels
    for kernel in kernels:
        parent = tel.span_by_id(kernel.parent_id)
        assert parent is not None
        assert parent.start <= kernel.start + 1e-9
        assert parent.node is None or parent.node == kernel.node


def test_training_metrics_recorded():
    tel = TelemetryCollector()
    result = run_casync(telemetry=tel)
    rows = {(r["kind"], r["name"]): r for r in tel.metrics.snapshot()}
    assert ("counter", "net.bytes_sent") in rows
    assert ("counter", "gpu.kernels") in rows
    assert ("counter", "coordinator.batches") in rows
    iter_gauge = next(r for (kind, name), r in rows.items()
                      if kind == "gauge" and name == "training.iteration_time_s")
    assert iter_gauge["value"] == pytest.approx(result.iteration_time)


def test_fault_events_become_instants():
    from repro.faults import FaultSchedule, GpuSlowdown
    tel = TelemetryCollector()
    schedule = FaultSchedule.of(
        GpuSlowdown(at=0.0005, node=1, factor=2.0, duration=0.01))
    simulate_iteration(small_model(), ec2_v100_cluster(3), RingAllreduce(),
                       fault_schedule=schedule, telemetry=tel)
    faults = [i for i in tel.instants if i["category"] == "fault"]
    assert [f["name"] for f in faults] == ["GpuSlowdown"]
    assert faults[0]["attrs"]["node"] == 1


def test_ambient_collector_spans_multiple_runs():
    with telemetry_session() as tel:
        run_casync()
        simulate_iteration(small_model(), ec2_v100_cluster(3),
                           RingAllreduce())
    assert len(tel.runs) == 2
    assert {s.run for s in tel.spans} == {0, 1}


def test_explicit_telemetry_overrides_ambient():
    explicit = TelemetryCollector()
    with telemetry_session() as ambient:
        run_casync(telemetry=explicit)
    assert explicit.spans
    assert not ambient.spans


def test_strategy_registry_instances_record_same_spans():
    # get_strategy("casync-ps") must behave like CaSyncPS() under telemetry
    model = small_model()
    cluster = ec2_v100_cluster(3)

    def spans_with(strategy):
        from repro.casync.lower import default_graph_cache
        # Cold-build both runs: a warm graph-cache hit legitimately skips
        # the per-pass syncplan spans, which is not what this test probes.
        default_graph_cache().clear()
        tel = TelemetryCollector()
        simulate_iteration(model, cluster, strategy, algorithm=OneBit(),
                           telemetry=tel)
        return [(s.name, s.track, s.start, s.end)
                for s in sorted(tel.spans,
                                key=lambda s: (s.start, s.track, s.name))]

    assert spans_with(CaSyncPS(selective=False)) == \
        spans_with(get_strategy("casync-ps", selective=False))
