"""End-to-end training-iteration simulation.

Combines the pieces -- model backward schedule, GPU compute, local (intra-
node) aggregation, a synchronization strategy's task graph, and the network
fabric -- into one simulated BSP iteration, and reports the metrics every
experiment consumes: iteration time, throughput, scaling efficiency,
communication ratio, and GPU-utilization timelines.

One steady-state iteration is simulated: forward, then backward producing
gradients layer by layer (each becoming eligible for synchronization after
intra-node aggregation), with synchronization overlapping backward exactly
as far as the strategy's task dependencies allow.  The iteration ends when
every node holds every aggregated gradient (BSP barrier) and the optimizer
step has been applied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..algorithms.base import CompressionAlgorithm
from ..casync.planner import CostModel, GradientPlan, SelectivePlanner
from ..casync.memory import peak_buffer_memory
from ..casync.tasks import Coordinator, NodeEngine, TaskGraph, run_graph
from ..cluster import ClusterSpec
from ..faults import (
    FaultInjector,
    FaultSchedule,
    Membership,
    NodeRestart,
    RetryPolicy,
    RobustSyncReport,
    run_graph_robust,
)
from ..faults.runner import count_retries
from ..gpu import Gpu
from ..models import ModelSpec
from ..net import Fabric
from ..sim import URGENT, Environment, gc_paused
from ..strategies.base import Strategy, SyncContext
from ..telemetry import TelemetryCollector, current_collector

__all__ = ["IterationResult", "simulate_iteration", "scaling_efficiency"]

#: Optimizer (SGD update) cost as a fraction of compute time.
OPTIMIZER_FRACTION = 0.02
#: Bin width of :attr:`IterationResult.gpu_util_series` (Fig. 9).
UTIL_BIN_S = 0.010


@dataclass(frozen=True)
class IterationResult:
    """Metrics from one simulated training iteration."""

    model: str
    strategy: str
    num_nodes: int
    gpus_per_node: int
    iteration_time: float
    compute_time: float
    batch_size: int

    #: Mean NIC busy fraction over the iteration (Table 1 "communication
    #: ratio": total communication activity share of training time).
    comm_ratio: float
    #: Synchronization time not hidden behind compute.
    exposed_sync_time: float
    #: Seconds the GPU comm stream spent on compression kernels.
    compression_time: float
    #: Per-GPU utilization series (Fig. 9), :data:`UTIL_BIN_S` bins.
    gpu_util_series: Tuple[float, ...] = ()
    coordinator_batches: int = 0
    #: Peak simultaneous communication-buffer bytes on the busiest node
    #: (§5's memory-frugality claim, from repro.casync.memory).
    peak_comm_buffer_bytes: float = 0.0
    #: Robust-execution report when the iteration ran under fault
    #: injection (None on the pristine path).
    fault_report: Optional[RobustSyncReport] = None
    #: Achieved per-link goodput (bytes actually sent / NIC busy time),
    #: the bandwidth signal the adaptive control plane's
    #: bandwidth_adaptive policy feeds on.  0.0 when nothing moved.
    measured_link_bandwidth: float = 0.0

    @property
    def total_gpus(self) -> int:
        return self.num_nodes * self.gpus_per_node

    @property
    def throughput(self) -> float:
        """Samples (or tokens) per second across the cluster."""
        return self.total_gpus * self.batch_size / self.iteration_time

    @property
    def scaling_efficiency(self) -> float:
        """actual / (N x single-GPU), as defined in the paper's §2.3."""
        single = self.batch_size / self.compute_time
        return (self.throughput / (self.total_gpus * single))


def make_plans(model: ModelSpec, cluster: ClusterSpec,
               algorithm: CompressionAlgorithm,
               strategy_kind: str) -> Dict[str, GradientPlan]:
    """The §3.3 planner's verdict for every gradient of ``model``.

    A report only: :class:`~repro.casync.passes.SelectivePass` plans the
    same gradients inside the cached plan build, so no round takes these.
    """
    cost_model = CostModel(cluster, algorithm, strategy=strategy_kind)
    planner = SelectivePlanner(cost_model)
    return planner.plan_model(model.gradients)


@dataclass
class _Round:
    """What one settled BSP round ran (see :func:`_run_round`)."""

    tel: Optional[TelemetryCollector]
    graph: TaskGraph
    gpus: List[Gpu]
    fabric: Fabric
    coordinator: Optional[Coordinator]
    #: When the synchronization graph completed.
    finish: float
    #: When the last node finished both its compute and its sync -- the
    #: barrier the optimizer step follows.
    barrier: float
    report: Optional[RobustSyncReport]
    compute_time: float


# The round owns the garbage collector: automatic collection is paused for
# the whole call, and resumes only after the round's state has been freed
# by reference counting (docs/SIM_CORE.md).
@gc_paused()
def simulate_iteration(model: ModelSpec, cluster: ClusterSpec,
                       strategy: Strategy,
                       algorithm: Optional[CompressionAlgorithm] = None,
                       local_aggregation: bool = True,
                       straggler: Optional[Tuple[int, float]] = None,
                       fault_schedule: Optional[FaultSchedule] = None,
                       retry_policy: Optional[RetryPolicy] = None,
                       degradation: bool = True,
                       sync_deadline_s: Optional[float] = None,
                       heartbeat_timeout_s: float = 0.02,
                       telemetry: Optional[TelemetryCollector] = None,
                       decisions=None) -> IterationResult:
    """Simulate one BSP iteration and return its metrics.

    ``decisions`` threads one iteration's adaptive per-gradient
    :class:`~repro.casync.decisions.DecisionMap` into the pass pipeline:
    :class:`~repro.casync.passes.AdaptivePass` then runs in the
    strategy's SelectivePass's place
    (:func:`~repro.casync.passes.strategy_pipeline`).  Decisions are
    content-keyed into the graph cache, so changed decisions rebuild the
    plan and identical ones replay warm.

    ``straggler=(node, factor)`` slows that node's compute by ``factor``
    (>1): BSP's synchronization barrier means one slow node stalls the
    whole cluster (§2.1), which this knob lets experiments quantify.

    Fault injection: a non-empty ``fault_schedule`` (or one attached via
    ``cluster.faults``) runs the iteration under the robustness machinery
    -- retry/timeout sends (``retry_policy``, defaulting to
    :class:`RetryPolicy()`), graceful degradation over the surviving
    workers (``degradation``), and an optional round deadline
    (``sync_deadline_s``) after which a typed
    :class:`~repro.faults.errors.SyncAborted` is raised.  The report lands
    in :attr:`IterationResult.fault_report`.  An empty (or absent)
    schedule with no explicit ``retry_policy`` keeps the simulation on
    the pristine code path, bit-identical to a build without the fault
    subsystem.

    Telemetry: pass a :class:`~repro.telemetry.TelemetryCollector` (or
    attach one ambiently via :func:`repro.telemetry.attach`) to record
    spans for every transfer, kernel, task, and per-layer backward
    segment, plus counters/gauges/histograms.  Recording only observes --
    it never creates simulation events -- so results and trace hashes are
    identical with and without a collector, and with none attached the
    instrumentation is a single pointer test per site.
    """
    if straggler is not None:
        node_idx, factor = straggler
        if not 0 <= node_idx < cluster.num_nodes:
            raise ValueError(f"straggler node {node_idx} out of range")
        if not (math.isfinite(factor) and factor >= 1.0):
            raise ValueError(f"straggler factor must be finite and >= 1, "
                             f"got {factor}")
    rnd = _run_round(
        model, cluster, strategy, algorithm=algorithm,
        local_aggregation=local_aggregation, straggler=straggler,
        fault_schedule=fault_schedule, retry_policy=retry_policy,
        degradation=degradation, sync_deadline_s=sync_deadline_s,
        heartbeat_timeout_s=heartbeat_timeout_s, telemetry=telemetry,
        decisions=decisions)
    tel, gpus, fabric = rnd.tel, rnd.gpus, rnd.fabric
    compute_time = rnd.compute_time
    iteration_time = rnd.barrier + compute_time * OPTIMIZER_FRACTION
    # Explicit left folds: from Python 3.12, ``sum`` of floats rounds
    # differently, and a round's numbers must not depend on the version.
    comm_busy = 0.0
    for nic in fabric.nics:
        comm_busy += nic.up_busy
    comm_ratio = (comm_busy / cluster.num_nodes) / iteration_time
    measured_bw = (fabric.stats.bytes_sent / comm_busy
                   if comm_busy > 0 else 0.0)
    compression_time = 0.0
    for gpu in gpus:
        compression_time += gpu.log.busy_time("compression")
    compression_time /= cluster.num_nodes
    exposed = max(0.0, iteration_time - compute_time)
    util = tuple(gpus[0].log.utilization_series(
        bin_width=UTIL_BIN_S, horizon=iteration_time, category="compute"))
    peaks = peak_buffer_memory(rnd.graph)
    peak_memory = max(peaks.values()) if peaks else 0.0

    if tel is not None:
        iter_span = tel.begin(
            f"iteration:{model.name}", category="iteration",
            track="sim/iteration", at=0.0, strategy=strategy.name,
            num_nodes=cluster.num_nodes)
        tel.finish(iter_span, iteration_time)
        labels = {"model": model.name, "strategy": strategy.name}
        tel.metrics.counter("training.iterations").inc()
        tel.metrics.gauge("training.iteration_time_s", **labels).set(
            iteration_time)
        tel.metrics.gauge("training.compute_time_s", **labels).set(
            compute_time)
        tel.metrics.gauge("training.comm_ratio", **labels).set(
            min(1.0, comm_ratio))
        tel.metrics.gauge("training.exposed_sync_s", **labels).set(exposed)
        tel.metrics.gauge("training.compression_s", **labels).set(
            compression_time)

    return IterationResult(
        model=model.name,
        strategy=strategy.name,
        num_nodes=cluster.num_nodes,
        gpus_per_node=cluster.node.gpus_per_node,
        iteration_time=iteration_time,
        compute_time=compute_time,
        batch_size=model.batch_size,
        comm_ratio=min(1.0, comm_ratio),
        exposed_sync_time=exposed,
        compression_time=compression_time,
        gpu_util_series=util,
        coordinator_batches=(rnd.coordinator.batches_flushed
                             if rnd.coordinator else 0),
        peak_comm_buffer_bytes=peak_memory,
        fault_report=rnd.report,
        measured_link_bandwidth=measured_bw,
    )


def _run_round(model: ModelSpec, cluster: ClusterSpec, strategy: Strategy,
               algorithm: Optional[CompressionAlgorithm] = None,
               local_aggregation: bool = True,
               straggler: Optional[Tuple[int, float]] = None,
               fault_schedule: Optional[FaultSchedule] = None,
               retry_policy: Optional[RetryPolicy] = None,
               degradation: bool = True,
               sync_deadline_s: Optional[float] = None,
               heartbeat_timeout_s: float = 0.02,
               telemetry: Optional[TelemetryCollector] = None,
               decisions=None,
               label_prefix: str = "") -> _Round:
    """Build and run one BSP round until it has settled.

    The one iteration driver: :func:`simulate_iteration` turns what ran
    into metrics, :func:`repro.training.trace.trace_iteration` into a
    task timeline.  ``label_prefix`` prefixes the telemetry run label.
    """
    for name, seconds in (("sync_deadline_s", sync_deadline_s),
                          ("heartbeat_timeout_s", heartbeat_timeout_s)):
        if seconds is not None and not seconds >= 0:  # also rejects NaN
            raise ValueError(f"{name} must be non-negative, got {seconds}")
    schedule = fault_schedule if fault_schedule is not None else cluster.faults
    faulty = schedule is not None and len(schedule) > 0
    robust = faulty or retry_policy is not None
    policy = retry_policy if retry_policy is not None else (
        RetryPolicy() if faulty else None)
    membership = Membership(cluster.num_nodes) if robust else None

    tel = telemetry if telemetry is not None else current_collector()
    env = Environment()
    env.telemetry = tel
    if tel is not None:
        tel.start_run(
            f"{label_prefix}{model.name}/{strategy.name}/{cluster.num_nodes}n")
    fabric = Fabric(env, cluster.num_nodes, cluster.network)
    gpus = [Gpu(env, cluster.node_at(i).gpu, index=i)
            for i in range(cluster.num_nodes)]
    ctx = SyncContext(env=env, cluster=cluster, algorithm=algorithm,
                      decisions=decisions)
    graph = strategy.build(ctx, model)

    # The plan decides bulk synchronization (§3.2): the global
    # coordinator and batch compression run exactly when it says so.
    coordinator = (Coordinator(env, fabric, retry_policy=policy,
                               membership=membership,
                               degradation=degradation)
                   if graph.bulk else None)
    engines = [NodeEngine(env, i, gpus[i], fabric, coordinator=coordinator,
                          retry_policy=policy, membership=membership,
                          degradation=degradation)
               for i in range(cluster.num_nodes)]
    injector = (FaultInjector(env, schedule, fabric=fabric, gpus=gpus,
                              engines=engines)
                if faulty else None)

    # Per-GPU-model timing, computed once per distinct model (one entry on
    # a homogeneous cluster).  Under BSP the iteration is paced by the
    # slowest node's compute, hence the max below.
    timings = {}
    for node_spec in cluster.distinct_nodes():
        if node_spec.gpu not in timings:
            timings[node_spec.gpu] = (
                model.forward_time(node_spec.gpu),
                list(model.backward_schedule(node_spec.gpu)),
                model.iteration_time(node_spec.gpu)
                * (1 + OPTIMIZER_FRACTION))
    compute_time = max(t[2] for t in timings.values())

    # Each GPU model's compute pass as kernels: (seconds, phase, the
    # gradient the kernel produces or None).
    segments = {}
    for gpu_spec, (forward, backward, _) in timings.items():
        offsets = [0.0] + [offset for offset, _ in backward]
        segments[gpu_spec] = [(forward, "forward", None)] + [
            (offset - prev, f"backward:{grad.name}", grad)
            for prev, (offset, grad) in zip(offsets, backward)]
    passes = []
    for node in range(cluster.num_nodes):
        node_spec = cluster.node_at(node)
        slowdown = (straggler[1] if straggler is not None
                    and node == straggler[0] else 1.0)
        restarts = () if schedule is None else tuple(
            ev.at for ev in schedule
            if isinstance(ev, NodeRestart) and ev.node == node)
        passes.append(_NodePass(
            gpus[node], node, segments[node_spec.gpu], slowdown, graph,
            node_spec if local_aggregation else None, restarts))
    # Each pass starts from its URGENT initializer hop.
    for node_pass in passes:
        env.call_later(0.0, node_pass.run, 0, URGENT)

    report: Optional[RobustSyncReport] = None
    if robust:
        if injector is not None:
            for node_pass in passes:
                injector.on_crash(node_pass.on_crash)
        report = run_graph_robust(
            env, graph, engines, membership, injector=injector,
            deadline_s=sync_deadline_s, degradation=degradation,
            heartbeat_timeout_s=heartbeat_timeout_s)
        finish = report.finish_time
    else:
        finish = run_graph(env, graph, engines)

    # The drain: a node's compute may outlast the synchronization.  A
    # pass ends when its last kernel does, or at a crash with no restart
    # to come.
    while any(node_pass.running for node_pass in passes):
        env.step()
    barrier = max(finish, env.now)
    if robust:
        # Let background retries/backoffs/timers play out so the transfer
        # ledger settles (byte conservation is checked over a quiescent
        # trace).  The clock this runs up is deliberately NOT part of the
        # barrier, which was captured above.
        env.run()
        report.declared_dead = membership.dead()
        report.retries = count_retries(engines)
        membership.clear_callbacks()
    graph.disarm()  # after the retries above, which record on the graph
    env.discard()  # settled: what is left would never fire
    return _Round(tel=tel, graph=graph, gpus=gpus, fabric=fabric,
                  coordinator=coordinator, finish=finish,
                  barrier=barrier, report=report, compute_time=compute_time)


class _NodePass:
    """One node's forward/backward compute pass, as a callback state machine.

    Each of ``segments`` (forward, then one per backward layer) is one
    compute kernel (:meth:`Gpu.run_compute`); a backward kernel's end
    fires its gradient's ready ref on ``graph``
    (:meth:`TaskGraph.make_ready`), through intra-node aggregation when
    ``agg_node`` is given.  A crash reaches the pass through an URGENT
    hop (:meth:`on_crash`): the kernel in flight is abandoned, and the
    pass ends, or, if the schedule restarts the node later, redoes the
    iteration's compute from scratch then (GPU state was lost).
    ``epoch`` counts crashes, so a recovery timer a later crash
    superseded does nothing.
    """

    __slots__ = ("gpu", "node", "segments", "slowdown", "graph", "agg_node",
                 "restarts", "running", "epoch", "segment", "span")

    def __init__(self, gpu: Gpu, node: int, segments: list, slowdown: float,
                 graph: TaskGraph, agg_node, restarts: tuple):
        self.gpu = gpu
        self.node = node
        self.segments = segments
        self.slowdown = slowdown
        self.graph = graph
        self.agg_node = agg_node
        self.restarts = restarts
        self.running = True
        self.epoch = 0
        self.segment = 0
        self.span = None

    def run(self, epoch: int) -> None:
        """Start the pass, unless a crash since superseded this hop."""
        if epoch == self.epoch:
            self._launch()

    def _launch(self) -> None:
        seconds, phase, grad = self.segments[self.segment]
        env = self.gpu.env
        tel = env.telemetry
        span = None
        if tel is not None:
            attrs = {} if grad is None else {"nbytes": grad.nbytes}
            span = tel.begin(phase, category="phase",
                             track=f"node{self.node}/layers", at=env.now,
                             **attrs)
        self.span = span
        self.gpu.run_compute(seconds * self.slowdown, self._segment_done,
                             category="compute", span_parent=span)

    def _segment_done(self, _token) -> None:
        env = self.gpu.env
        if self.span is not None:
            env.telemetry.finish(self.span, env.now)
        grad = self.segments[self.segment][2]
        if grad is not None:
            graph, key = self.graph, (self.node, grad.name)
            if key not in graph.ready_at:  # else made ready before a crash
                delay = (self.agg_node.local_aggregation_time(grad.nbytes)
                         if self.agg_node is not None else 0.0)
                if delay > 0:
                    env.call_later(0.0, _start_local_agg,
                                   (graph, key, delay), URGENT)
                else:
                    graph.make_ready(*key)
        self.segment += 1
        if self.segment == len(self.segments):
            self.running = False
        else:
            self._launch()

    def on_crash(self, node: int) -> None:
        """The injector's crash hook: schedule the crash's URGENT hop."""
        if node == self.node and self.running:
            self.gpu.env.call_later(0.0, self._crashed, None, URGENT)

    def _crashed(self, _value: None) -> None:
        # The abandoned kernel's phase span stays open: the phase never
        # ended.
        self.epoch += 1
        self.segment = 0
        self.gpu.abort_compute()
        env = self.gpu.env
        restarts = [at for at in self.restarts if at >= env.now]
        if not restarts:
            self.running = False
            return
        delay = min(restarts) - env.now
        if delay > 0:
            env.call_later(delay, self.run, self.epoch)
        else:
            self._launch()


def _start_local_agg(hop: Tuple[TaskGraph, Tuple[int, str], float]) -> None:
    """The URGENT hop of a gradient's intra-node aggregation: the ready
    ref ``key`` of ``graph`` fires ``delay`` later."""
    graph, key, delay = hop
    graph.env.call_later(delay, _finish_local_agg, (graph, key))


def _finish_local_agg(ref: Tuple[TaskGraph, Tuple[int, str]]) -> None:
    graph, key = ref
    if key not in graph.ready_at:  # a pre-crash aggregation may have won
        graph.make_ready(*key)


def scaling_efficiency(result: IterationResult) -> float:
    return result.scaling_efficiency
