"""Chrome-trace export of a simulated iteration's task timeline.

``trace_iteration`` is a view over the round
:func:`~repro.training.loop.simulate_iteration` runs, not a second
driver: it runs that same round, with intra-node aggregation off (each
gradient is ready the moment backward produces it), and converts every
executed task's (start, finish) plus each GPU's compute intervals into
:class:`TraceEvent` rows -- one row per node with GPU-compute,
GPU-compression, host-CPU and network lanes.
:meth:`IterationTrace.to_chrome_trace` writes the Chrome Trace Event
Format JSON that ``chrome://tracing`` / Perfetto load; this is the
debugging view the paper's Figure 9 nsight screenshots give their
authors.  :func:`trace_hash` digests the timeline; the golden hashes in
``tests/golden/`` pin it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import List, Optional

from ..algorithms.base import CompressionAlgorithm
from ..cluster import ClusterSpec
from ..faults import FaultSchedule, RetryPolicy
from ..models import ModelSpec
from ..sim import gc_paused
from ..strategies.base import Strategy
from ..telemetry import TelemetryCollector
from .loop import _run_round

__all__ = ["TraceEvent", "IterationTrace", "trace_iteration", "trace_hash"]

#: Lane (tid) assignment per task kind.
_LANES = {"encode": "gpu-compression", "decode": "gpu-compression",
          "merge": "gpu-compression", "copy": "gpu-compression",
          "cpu": "host-cpu", "send": "network"}


@dataclass(frozen=True)
class TraceEvent:
    name: str
    node: int
    lane: str
    start: float
    duration: float


@dataclass
class IterationTrace:
    events: List[TraceEvent]
    finish_time: float

    def to_chrome_trace(self) -> str:
        """Serialize to Chrome Trace Event Format JSON."""
        records = []
        for ev in self.events:
            records.append({
                "name": ev.name,
                "cat": ev.lane,
                "ph": "X",
                "ts": ev.start * 1e6,        # microseconds
                "dur": max(ev.duration, 1e-3) * 1e6,
                "pid": ev.node,
                "tid": ev.lane,
            })
        return json.dumps({"traceEvents": records,
                           "displayTimeUnit": "ms"}, indent=1)

    def events_on(self, node: int, lane: Optional[str] = None
                  ) -> List[TraceEvent]:
        return [e for e in self.events
                if e.node == node and (lane is None or e.lane == lane)]


@gc_paused()  # as simulate_iteration's is
def trace_iteration(model: ModelSpec, cluster: ClusterSpec,
                    strategy: Strategy,
                    algorithm: Optional[CompressionAlgorithm] = None,
                    fault_schedule: Optional[FaultSchedule] = None,
                    retry_policy: Optional[RetryPolicy] = None,
                    degradation: bool = True,
                    sync_deadline_s: Optional[float] = None,
                    heartbeat_timeout_s: float = 0.02,
                    telemetry: Optional[TelemetryCollector] = None,
                    decisions=None) -> IterationTrace:
    """Simulate one iteration, returning the full task timeline.

    Every parameter means what it means to
    :func:`~repro.training.loop.simulate_iteration`, which runs the same
    round; with a non-empty ``fault_schedule`` the timeline shows the
    degraded round (retries, re-routed sends, dropped tasks) instead of
    the pristine one.
    """
    rnd = _run_round(
        model, cluster, strategy, algorithm=algorithm,
        local_aggregation=False, fault_schedule=fault_schedule,
        retry_policy=retry_policy, degradation=degradation,
        sync_deadline_s=sync_deadline_s,
        heartbeat_timeout_s=heartbeat_timeout_s, telemetry=telemetry,
        decisions=decisions, label_prefix="trace:")

    events: List[TraceEvent] = []
    graph = rnd.graph
    for k, (start, end) in enumerate(zip(graph.started_at,
                                         graph.finished_at)):
        if start != start:  # never started
            continue
        if end != end:
            end = start
        kind = graph.recipe.kinds[k]
        events.append(TraceEvent(
            name=graph.recipe.labels[k] or kind, node=graph.nodes[k],
            lane=_LANES.get(kind, kind),
            start=start, duration=max(0.0, end - start)))
    # GPU compute intervals come from the interval log.
    for node, gpu in enumerate(rnd.gpus):
        for start, end, category in gpu.log.intervals:
            if category == "compute":
                events.append(TraceEvent(
                    name="dnn-compute", node=node, lane="gpu-compute",
                    start=start, duration=end - start))
    events.sort(key=lambda e: (e.node, e.lane, e.start))
    return IterationTrace(events=events, finish_time=rnd.finish)


def trace_hash(trace: IterationTrace) -> str:
    """SHA-256 over the canonical event timeline.

    Two runs with the same seed, workload, and fault schedule must produce
    the same hash -- the determinism contract the regression tests lock in.
    Timestamps are rounded to the picosecond so the hash keys on simulated
    behaviour, not on float repr noise.
    """
    digest = hashlib.sha256()
    digest.update(f"finish:{trace.finish_time:.12f}\n".encode())
    for ev in trace.events:
        digest.update(
            f"{ev.node}|{ev.lane}|{ev.name}|{ev.start:.12f}|"
            f"{ev.duration:.12f}\n".encode())
    return digest.hexdigest()
