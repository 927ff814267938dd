"""Tests for the Chrome-trace export of simulated iterations."""

import json
from unittest import mock

import pytest

from repro.algorithms import OneBit
from repro.cluster import ec2_v100_cluster
from repro.models import GradientSpec, ModelSpec
from repro.strategies import CaSyncPS, RingAllreduce
from repro.training.loop import _run_round
from repro.training.trace import trace_iteration
from tests.taskgraph_rows import tasks

MB = 1024 * 1024


def tiny_model():
    grads = (GradientSpec("t.g0", 16 * MB), GradientSpec("t.g1", 4 * MB))
    return ModelSpec(name="t", gradients=grads, batch_size=8,
                     batch_unit="images", v100_iteration_s=0.01)


def run_trace(strategy=None, algorithm=None, **kw):
    return trace_iteration(tiny_model(), ec2_v100_cluster(3),
                           strategy or RingAllreduce(), algorithm=algorithm,
                           **kw)


def test_trace_contains_all_lanes():
    rounds = []

    def recording_round(*args, **kwargs):
        rounds.append(_run_round(*args, **kwargs))
        return rounds[-1]

    with mock.patch("repro.training.trace._run_round", recording_round):
        trace = run_trace(strategy=CaSyncPS(selective=False),
                          algorithm=OneBit())
    lanes = {e.lane for e in trace.events}
    assert "gpu-compute" in lanes
    assert "gpu-compression" in lanes
    # One network event per executed send, coordinator-batched ones too.
    sends = [t for t in tasks(rounds[0].graph) if t.kind == "send"]
    assert any(t.bulk for t in sends)
    assert len([e for e in trace.events if e.lane == "network"]) == len(sends)


def test_trace_events_within_horizon():
    trace = run_trace()
    for event in trace.events:
        assert event.start >= 0
        assert event.start <= trace.finish_time + 1e-9


def test_trace_compute_covers_model_time():
    trace = run_trace()
    compute = sum(e.duration for e in trace.events_on(0, "gpu-compute"))
    assert compute == pytest.approx(0.01, rel=0.05)


def test_trace_chrome_json_valid():
    trace = run_trace(strategy=CaSyncPS(selective=False),
                      algorithm=OneBit())
    doc = json.loads(trace.to_chrome_trace())
    assert doc["traceEvents"]
    sample = doc["traceEvents"][0]
    assert set(sample) >= {"name", "ph", "ts", "dur", "pid", "tid"}
    assert sample["ph"] == "X"


def test_trace_network_events_carry_transfers():
    trace = run_trace()
    sends = [e for e in trace.events if e.lane == "network"]
    assert sends
    assert all(e.duration >= 0 for e in sends)


def test_trace_events_on_filters():
    trace = run_trace()
    all_node0 = trace.events_on(0)
    net_node0 = trace.events_on(0, "network")
    assert len(net_node0) <= len(all_node0)
    assert all(e.node == 0 for e in all_node0)
