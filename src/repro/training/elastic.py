"""Elastic training: epoch-boundary roster transitions over a fleet.

The BSP simulator runs one synchronization round at a time over a fixed
set of ranks; elasticity lives *above* it.  :func:`run_elastic` walks a
:class:`~repro.faults.elastic.MembershipSchedule` epoch by epoch:

1. compute the epoch's :class:`~repro.faults.elastic.Roster` and derive
   the matching sub-cluster (:meth:`ClusterSpec.subset` -- survivors
   keep their per-node hardware and resolved links);
2. **re-plan**: rebuild the strategy's task graph -- §3.3 selective
   verdicts included -- for the roster via
   :func:`repro.strategies.bind_roster`, whose
   :class:`~repro.casync.passes.MembershipPass` folds the (roster,
   epoch) into the graph-cache key -- a roster change is a new cache
   entry, never a silently reused wrong-sized collective;
3. lower the epoch's *mid-epoch* departures (fractional
   :class:`~repro.faults.schedule.NodeLeave` events) to
   :class:`~repro.faults.schedule.NodeCrash` events on local ranks and
   run the round under the robustness machinery -- the departed NIC's
   in-flight events are cancelled and the survivors either complete the
   round degraded or abort with a typed
   :class:`~repro.faults.errors.SyncAborted`;
4. an infeasible roster (fewer than ``min_roster`` survivors) raises a
   typed :class:`~repro.errors.ConfigError` -- elastic runs degrade
   loudly, never crash obscurely.

Determinism: everything here is a pure function of (model, cluster,
schedule, strategy config), so the same seeded churn schedule replays to
bit-identical per-epoch trace hashes (:func:`elastic_trace_hashes`) --
the contract tests/test_elastic_properties.py locks in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..cluster import ClusterSpec
from ..errors import ConfigError
from ..faults.elastic import MembershipSchedule, Roster
from ..faults.errors import SyncAborted
from ..faults.retry import RetryPolicy
from ..faults.schedule import FaultSchedule, NodeCrash
from ..models import ModelSpec
from ..strategies import Strategy, bind_roster
from .loop import IterationResult, simulate_iteration
from .trace import trace_hash, trace_iteration

__all__ = [
    "EpochOutcome",
    "ElasticRunReport",
    "elastic_trace_hashes",
    "epoch_inputs",
    "run_elastic",
]


@dataclass(frozen=True)
class EpochOutcome:
    """One epoch of an elastic run."""

    epoch: int
    #: Global node ids enrolled at the epoch's start.
    roster: Tuple[int, ...]
    #: Mid-epoch departures as (global node, fraction-of-horizon).
    departures: Tuple[Tuple[int, float], ...]
    #: "ok" (round completed, possibly degraded) or "aborted" (typed
    #: SyncAborted under the round deadline).
    status: str
    #: Wall-clock charged to the epoch: the round's iteration time, or
    #: the abort deadline when the round gave up.
    elapsed_s: float
    #: The sub-cluster's name the epoch ran on.
    cluster: str
    #: Full per-iteration metrics (None when the round aborted).
    result: Optional[IterationResult] = None
    #: Why the round aborted (str(SyncAborted)), when it did.
    abort_reason: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass(frozen=True)
class ElasticRunReport:
    """A whole elastic run: one outcome per epoch plus totals."""

    model: str
    strategy: str
    schedule_token: str
    epochs: Tuple[EpochOutcome, ...]
    #: Sum of per-epoch elapsed time (completed and aborted epochs both
    #: cost wall clock).
    total_time_s: float
    #: Samples processed across completed epochs (an aborted epoch
    #: contributes nothing -- its round never committed).
    samples: float

    @property
    def completed_epochs(self) -> int:
        return sum(1 for e in self.epochs if e.ok)

    @property
    def mean_roster_size(self) -> float:
        return sum(len(e.roster) for e in self.epochs) / len(self.epochs)

    @property
    def goodput(self) -> float:
        """Committed samples per second over the whole run."""
        return self.samples / self.total_time_s if self.total_time_s else 0.0


def epoch_inputs(model: ModelSpec, cluster: ClusterSpec,
                 schedule: MembershipSchedule, epoch: int,
                 min_roster: Optional[int] = None,
                 epoch_horizon_s: Optional[float] = None
                 ) -> Tuple[Roster, ClusterSpec, FaultSchedule]:
    """Everything one epoch's round needs: roster, sub-cluster, faults.

    Raises a typed :class:`ConfigError` when the roster is infeasible
    (fewer than ``min_roster`` survivors -- default: the schedule's own
    floor).  Mid-epoch departures come back as a :class:`FaultSchedule`
    of :class:`NodeCrash` events on *local* ranks, timed at their
    fraction of ``epoch_horizon_s`` (default: twice the roster's slowest
    single-GPU iteration time, a deterministic stand-in for the epoch's
    span so the crash lands inside the round).
    """
    if schedule.num_nodes != cluster.num_nodes:
        raise ConfigError(
            "membership-fleet", schedule.num_nodes, [cluster.num_nodes],
            hint=f"the membership schedule describes a "
                 f"{schedule.num_nodes}-node fleet but cluster "
                 f"{cluster.name!r} has {cluster.num_nodes} nodes")
    floor = schedule.min_roster if min_roster is None else min_roster
    roster = schedule.roster_entering(epoch)
    if len(roster) < floor:
        raise ConfigError(
            "roster", list(roster.nodes), [f">= {floor} nodes"],
            hint=f"epoch {epoch}'s roster is infeasible: distributed "
                 f"training needs at least {floor} enrolled nodes")
    sub = cluster.subset(roster.nodes)
    departures = schedule.departures_during(epoch)
    if epoch_horizon_s is None:
        epoch_horizon_s = 2.0 * max(
            model.iteration_time(cluster.node_at(node).gpu)
            for node in roster)
    crashes = tuple(
        NodeCrash(at=fraction * epoch_horizon_s,
                  node=roster.local_rank(node))
        for node, fraction in departures
        if node in roster)
    return roster, sub, FaultSchedule(crashes)


def _epochs(model: ModelSpec, cluster: ClusterSpec, strategy: Strategy,
            schedule: MembershipSchedule, epochs: Optional[int],
            retry_policy: Optional[RetryPolicy],
            epoch_horizon_s: Optional[float], min_roster: Optional[int],
            make_strategy) -> Iterator[Tuple[int, Roster, ClusterSpec,
                                             Dict[str, Any]]]:
    """The epoch loop: ``(epoch, roster, sub-cluster, driver kwargs)``.

    The driver kwargs are the per-epoch arguments of one round: the
    roster-bound strategy, the mid-epoch crash schedule and the retry
    policy (aggressive retries when something crashes and the caller
    chose none).
    """
    total = schedule.epochs() if epochs is None else epochs
    if total < 1:
        raise ValueError(f"epochs must be >= 1, got {total}")
    for epoch in range(total):
        roster, sub, crashes = epoch_inputs(
            model, cluster, schedule, epoch, min_roster=min_roster,
            epoch_horizon_s=epoch_horizon_s)
        fresh = make_strategy() if make_strategy is not None else strategy
        bound = bind_roster(fresh, roster.nodes, epoch=epoch)
        policy = retry_policy
        if crashes and policy is None:
            policy = RetryPolicy.aggressive()
        yield epoch, roster, sub, dict(
            strategy=bound,
            fault_schedule=crashes if crashes else None,
            retry_policy=policy)


def run_elastic(model: ModelSpec, cluster: ClusterSpec,
                strategy: Strategy,
                schedule: MembershipSchedule,
                epochs: Optional[int] = None,
                algorithm=None,
                retry_policy: Optional[RetryPolicy] = None,
                sync_deadline_s: Optional[float] = None,
                heartbeat_timeout_s: float = 0.02,
                epoch_horizon_s: Optional[float] = None,
                min_roster: Optional[int] = None,
                make_strategy=None) -> ElasticRunReport:
    """Run ``epochs`` training epochs under an elastic membership.

    One simulated BSP round stands in for each epoch (the simulator's
    usual contraction: per-iteration behaviour is what distinguishes
    configurations).  ``strategy`` is re-bound to every epoch's roster;
    pass ``make_strategy`` (a zero-arg factory) if the strategy type
    keeps per-run state and should be rebuilt per epoch.  A selective
    strategy re-runs the §3.3 planner per epoch on the epoch's
    sub-cluster -- the planner's verdicts shift with the roster, which is
    the point.

    Epochs with mid-epoch departures run under the robustness machinery
    (``retry_policy`` defaulting to aggressive retries, and the optional
    ``sync_deadline_s`` round deadline): they complete degraded or are
    recorded as aborted -- a typed outcome either way.
    """
    outcomes: List[EpochOutcome] = []
    total_time = 0.0
    samples = 0.0
    for epoch, roster, sub, driver in _epochs(
            model, cluster, strategy, schedule, epochs, retry_policy,
            epoch_horizon_s, min_roster, make_strategy):
        try:
            result = simulate_iteration(
                model, sub, algorithm=algorithm,
                sync_deadline_s=sync_deadline_s,
                heartbeat_timeout_s=heartbeat_timeout_s, **driver)
        except SyncAborted as abort:
            elapsed = (sync_deadline_s if sync_deadline_s is not None
                       else 0.0)
            outcomes.append(EpochOutcome(
                epoch=epoch, roster=roster.nodes,
                departures=schedule.departures_during(epoch),
                status="aborted", elapsed_s=elapsed, cluster=sub.name,
                abort_reason=str(abort)))
            total_time += elapsed
            continue
        outcomes.append(EpochOutcome(
            epoch=epoch, roster=roster.nodes,
            departures=schedule.departures_during(epoch),
            status="ok", elapsed_s=result.iteration_time,
            cluster=sub.name, result=result))
        total_time += result.iteration_time
        samples += result.total_gpus * result.batch_size
    return ElasticRunReport(
        model=model.name, strategy=strategy.name,
        schedule_token=schedule.token(), epochs=tuple(outcomes),
        total_time_s=total_time, samples=samples)


def elastic_trace_hashes(model: ModelSpec, cluster: ClusterSpec,
                         strategy: Strategy,
                         schedule: MembershipSchedule,
                         epochs: Optional[int] = None,
                         algorithm=None,
                         retry_policy: Optional[RetryPolicy] = None,
                         sync_deadline_s: Optional[float] = None,
                         heartbeat_timeout_s: float = 0.02,
                         epoch_horizon_s: Optional[float] = None,
                         make_strategy=None) -> Tuple[str, ...]:
    """Per-epoch trace hashes of an elastic run (determinism proofs).

    The canonical event timeline of every epoch's round, hashed -- two
    replays of the same (model, cluster, schedule, strategy) must match
    bit for bit, and a static schedule's hashes must equal the plain
    (non-elastic) tracer's.  An epoch whose round aborts hashes the
    typed abort instead (``aborted:<reason class>``), so replay
    determinism covers failed rounds too.
    """
    hashes: List[str] = []
    for _, roster, sub, driver in _epochs(
            model, cluster, strategy, schedule, epochs, retry_policy,
            epoch_horizon_s, min_roster=None, make_strategy=make_strategy):
        try:
            trace = trace_iteration(
                model, sub, algorithm=algorithm,
                sync_deadline_s=sync_deadline_s,
                heartbeat_timeout_s=heartbeat_timeout_s, **driver)
        except SyncAborted as abort:
            hashes.append(f"aborted:{type(abort).__name__}:"
                          f"{roster.token()}")
            continue
        hashes.append(trace_hash(trace))
    return tuple(hashes)
