"""Tests for repro.telemetry.export: Chrome trace, metrics dumps, binning.

The Chrome-trace output must be loadable by Perfetto: "X" complete events
with microsecond timestamps, pid = node index, tid = track name, sorted by
timestamp.  ``parse_chrome_trace`` inverts the exporter far enough to
round-trip counts and timings.  ``utilization_series`` must agree with the
GPU model's own interval-log binning -- that equivalence is what lets the
fig9 driver read utilization from telemetry.
"""

import json

import pytest

from repro.algorithms import OneBit
from repro.cluster import ec2_v100_cluster
from repro.models import GradientSpec, ModelSpec
from repro.strategies import CaSyncPS, RingAllreduce
from repro.telemetry import (
    TelemetryCollector,
    flame_summary,
    parse_chrome_trace,
    to_chrome_trace,
    to_metrics_csv,
    to_metrics_json,
    utilization_series,
    write_chrome_trace,
)
from repro.training import simulate_iteration

MB = 1024 * 1024


def small_model():
    grads = tuple(GradientSpec(f"e.g{i}", s)
                  for i, s in enumerate((MB, 512 * 1024)))
    return ModelSpec(name="e", gradients=grads, batch_size=4,
                     batch_unit="images", v100_iteration_s=0.002)


def recorded_collector(n=3):
    tel = TelemetryCollector()
    result = simulate_iteration(
        small_model(), ec2_v100_cluster(n), CaSyncPS(selective=False),
        algorithm=OneBit(), telemetry=tel)
    return tel, result


def hand_collector():
    tel = TelemetryCollector()
    tel.start_run("unit")
    a = tel.begin("outer", category="task", track="node0/encode", at=0.0,
                  nbytes=100)
    tel.finish(tel.begin("inner", category="kernel", track="node0/gpu-comm",
                         parent=a, at=0.01), 0.03)
    tel.finish(a, 0.05)
    tel.begin("never-finished", category="task", track="node1/merge", at=0.02)
    tel.instant("NodeCrash", category="fault", track="faults", at=0.04,
                node=1)
    tel.counter("bytes", node=0).inc(42)
    tel.gauge("ratio").set(0.5)
    tel.histogram("lat").observe(1.5)
    tel.histogram("lat").observe(0.5)
    return tel


# -- chrome trace -----------------------------------------------------------

def test_chrome_trace_structure_and_round_trip():
    tel = hand_collector()
    doc = json.loads(to_chrome_trace(tel))
    events = doc["traceEvents"]
    xs = [e for e in events if e["ph"] == "X"]
    instants = [e for e in events if e["ph"] == "i"]
    assert len(xs) == 3 and len(instants) == 2      # run marker + fault
    assert [e["ts"] for e in events] == sorted(e["ts"] for e in events)
    outer = next(e for e in xs if e["name"] == "outer")
    assert outer["pid"] == 0 and outer["tid"] == "node0/encode"
    assert outer["dur"] == pytest.approx(0.05 * 1e6)
    assert outer["args"]["nbytes"] == 100
    inner = next(e for e in xs if e["name"] == "inner")
    assert inner["args"]["parent"] == outer["args"]["id"]
    open_span = next(e for e in xs if e["name"] == "never-finished")
    assert open_span["args"]["open"] is True
    assert doc["otherData"]["runs"] == [
        {"index": 0, "label": "unit", "offset": 0.0}]

    parsed = parse_chrome_trace(to_chrome_trace(tel))
    assert len(parsed["spans"]) == 3
    assert len(parsed["instants"]) == 2
    back = next(s for s in parsed["spans"] if s["name"] == "outer")
    assert back["start"] == pytest.approx(0.0)
    assert back["duration"] == pytest.approx(0.05)
    assert parsed["runs"][0]["label"] == "unit"


def test_chrome_trace_from_simulation_has_per_node_pids(tmp_path):
    tel, _ = recorded_collector(n=3)
    path = tmp_path / "trace.json"
    write_chrome_trace(tel, path)
    parsed = parse_chrome_trace(path.read_text())
    span_count = len([s for s in tel.spans])
    assert len(parsed["spans"]) == span_count
    nodes = {s["node"] for s in parsed["spans"]}
    assert {0, 1, 2} <= nodes
    # every node contributes encode and transfer tracks
    for node in range(3):
        tracks = {s["track"] for s in parsed["spans"] if s["node"] == node}
        assert f"node{node}/encode" in tracks
        assert f"node{node}/transfer" in tracks


def test_chrome_trace_sanitizes_non_json_attrs():
    tel = TelemetryCollector()
    tel.finish(tel.begin("s", attrs_obj=object(), at=0.0), 1.0)
    doc = json.loads(to_chrome_trace(tel))       # must not raise
    args = doc["traceEvents"][0]["args"]
    assert isinstance(args["attrs_obj"], str)


# -- metrics ----------------------------------------------------------------

def test_metrics_json_snapshot():
    tel = hand_collector()
    rows = json.loads(to_metrics_json(tel))
    by_name = {(r["kind"], r["name"]): r for r in rows}
    assert by_name[("counter", "bytes")]["value"] == 42
    assert by_name[("counter", "bytes")]["labels"] == {"node": 0}
    assert by_name[("gauge", "ratio")]["value"] == 0.5
    hist = by_name[("histogram", "lat")]
    assert (hist["count"], hist["min"], hist["max"]) == (2, 0.5, 1.5)
    assert hist["mean"] == pytest.approx(1.0)


def test_metrics_csv_shape():
    tel = hand_collector()
    lines = to_metrics_csv(tel).strip().splitlines()
    assert lines[0] == "kind,name,labels,value,count,sum,min,max"
    assert len(lines) == 4                        # header + 3 metrics
    counter = next(l for l in lines if l.startswith("counter,bytes"))
    assert counter.split(",")[2] == "node=0"
    assert counter.split(",")[3] == "42.0"


# -- flame summary ----------------------------------------------------------

def test_flame_summary_self_time_excludes_children():
    tel = hand_collector()
    text = flame_summary(tel)
    lines = {l.split()[0]: l.split() for l in text.splitlines()[2:]}
    # outer ran 0.05s but 0.02s belongs to its kernel child
    assert float(lines["task/outer"][3]) == pytest.approx(0.03)
    assert float(lines["kernel/inner"][2]) == pytest.approx(0.02)
    assert "never-finished" not in text           # open spans excluded


def test_flame_summary_empty():
    assert "no finished spans" in flame_summary(TelemetryCollector())


# -- utilization ------------------------------------------------------------

def test_utilization_series_basic_binning():
    tel = TelemetryCollector()
    tel.finish(tel.begin("k", track="node0/gpu-compute", at=0.0), 0.5)
    tel.finish(tel.begin("k", track="node0/gpu-compute", at=1.25), 1.75)
    series = utilization_series(tel, "node0/gpu-compute", bin_width=0.5,
                                horizon=2.0)
    assert series == pytest.approx([1.0, 0.0, 0.5, 0.5])


def test_utilization_series_rejects_bad_bin():
    with pytest.raises(ValueError):
        utilization_series(TelemetryCollector(), "t", bin_width=0.0,
                           horizon=1.0)


def test_utilization_series_is_run_aware():
    tel = TelemetryCollector()
    tel.start_run("first")
    tel.finish(tel.begin("k", track="node0/gpu-compute", at=0.0), 1.0)
    tel.start_run("second")
    tel.finish(tel.begin("k", track="node0/gpu-compute", at=0.5), 1.0)
    first = utilization_series(tel, "node0/gpu-compute", 0.5, 1.0, run=0)
    second = utilization_series(tel, "node0/gpu-compute", 0.5, 1.0, run=1)
    assert first == pytest.approx([1.0, 1.0])
    assert second == pytest.approx([0.0, 1.0])
    # default run is the last one
    assert utilization_series(tel, "node0/gpu-compute", 0.5, 1.0) == second


def test_utilization_matches_gpu_interval_log():
    # The fig9 driver reads utilization from kernel spans; it must agree
    # with the GPU model's own interval-log series (same 10 ms bins).
    tel = TelemetryCollector()
    result = simulate_iteration(small_model(), ec2_v100_cluster(3),
                                RingAllreduce(), telemetry=tel)
    from_tel = utilization_series(tel, "node0/gpu-compute", bin_width=0.010,
                                  horizon=result.iteration_time)
    assert len(from_tel) == len(result.gpu_util_series)
    assert from_tel == pytest.approx(list(result.gpu_util_series), abs=1e-9)
