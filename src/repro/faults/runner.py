"""Fault-tolerant task-graph execution: degradation, deadlines, reporting.

:func:`run_graph_robust` is the chaos-ready sibling of
:func:`repro.casync.tasks.run_graph`.  Beyond arming and draining the
graph it provides:

* a **failure detector**: peers declare a node dead when their retry
  budget for it is exhausted (fed by the engines' robust sends), or when
  the heartbeat timeout elapses after a ground-truth crash;
* **graceful degradation**: on a declared death the
  :class:`DegradationController` re-plans the dead node's aggregation
  duties onto its deterministic substitute and drops work that died with
  the node (a dead worker's own contribution), so the surviving workers
  still finish the round;
* a **deadline**: the round either completes or raises a typed
  :class:`~repro.faults.errors.SyncAborted` -- it can never hang forever;
* a **completion ledger** every invariant check reads.

This module deliberately duck-types the task graph (no import of
``repro.casync``) so the two packages stay import-cycle-free.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence, Tuple

from ..sim import URGENT, Environment, SimulationError
from .errors import DeadlineExceeded, FaultError, SyncAborted
from .membership import Membership

__all__ = ["run_graph_robust", "DegradationController", "RobustSyncReport",
           "CompletionRecord"]

#: Task kinds a surviving substitute can take over from a dead node.
_REASSIGNABLE_KINDS = ("encode", "decode", "merge", "copy", "cpu")


@dataclass(frozen=True)
class CompletionRecord:
    """One task's completion, as observed by the runner's ledger."""

    task_id: int
    at: float
    node: int
    kind: str
    label: str
    ok: bool
    dropped: bool


@dataclass
class RobustSyncReport:
    """Everything a chaos test wants to assert about one robust round."""

    finish_time: float = 0.0
    completions: List[CompletionRecord] = field(default_factory=list)
    reassigned_tasks: int = 0
    dropped_tasks: int = 0
    declared_dead: Tuple[int, ...] = ()
    retries: int = 0
    aborted: bool = False
    abort_reason: str = ""
    #: The executed graph and the injector's FaultState, attached so the
    #: invariant checker can audit a round from the report alone.
    graph: Any = None
    state: Any = None

    @property
    def degraded(self) -> bool:
        return bool(self.declared_dead) or self.dropped_tasks > 0


class DegradationController:
    """Re-plans a graph around declared deaths.

    On ``membership.declare_dead(d)``:

    * compute/CPU tasks hosted on ``d`` whose inputs survived are
      *reassigned* to ``route(d)`` -- the dead aggregator's partitions are
      aggregated by its substitute over the surviving workers;
    * sends from ``d`` and tasks whose inputs died with ``d`` (an
      unfired ready ref of a dead node, found through
      :meth:`TaskGraph.predecessors`, which sees through joins) are
      *dropped*: completed through ``graph.complete`` so dependents
      unblock, with the task marked ``dropped`` for the trace and the
      invariant checker;
    * in-flight sends *to* ``d`` re-route themselves (the engines consult
      ``membership.route`` on every attempt), so no action is needed here.
    """

    def __init__(self, env: Environment, graph: Any,
                 engines: Sequence[Any], membership: Membership,
                 enabled: bool = True):
        self.env = env
        self.graph = graph
        self.engines = {e.node: e for e in engines}
        self.membership = membership
        self.enabled = enabled
        self.reassigned = 0
        self.dropped = 0
        membership.on_death(self._on_death)

    # -- death handling ---------------------------------------------------

    def _on_death(self, node: int) -> None:
        engine = self.engines.get(node)
        if engine is not None and not engine.halted:
            # Declared dead before (or without) a ground-truth crash: stop
            # executing on it anyway -- the cluster has excommunicated it.
            engine.halt()
        dead_inputs = self._unfired_refs_of_dead_nodes()
        graph = self.graph
        try:
            substitute = self.membership.route(node) if self.enabled else None
        except RuntimeError:
            substitute = None  # everyone is dead; just drop
        triggered, kinds = graph.triggered, graph.recipe.kinds
        for k in range(graph.num_tasks):
            # ``graph.nodes`` is re-read: a reassignment may copy it.
            if triggered[k] or graph.nodes[k] != node:
                continue
            salvageable = (
                substitute is not None
                and kinds[k] in _REASSIGNABLE_KINDS
                and dead_inputs.isdisjoint(graph.predecessors(k)))
            if salvageable:
                self._reassign(k, substitute, engine)
            else:
                self._drop(k)

    def _unfired_refs_of_dead_nodes(self) -> set:
        # Only a ready ref ``(node, gradient)`` (a node's local gradient
        # signal) can die with its node; task deps re-plan via their own
        # _on_death pass.
        dead = set(self.membership.dead())
        ready_at = self.graph.ready_at
        return {key for key in self.graph.csr.ref_keys
                if key[0] in dead and key not in ready_at}

    def _reassign(self, k: int, substitute: int, engine: Any) -> None:
        self.graph.reassign(k, substitute)
        self.reassigned += 1
        if engine is not None and k in engine.orphans:
            # Already dispatched to the dead engine: hand it straight to
            # the substitute.  Undispatched tasks re-route on their own
            # (the graph's dispatch reads the node at release time).
            engine.orphans.remove(k)
            self.engines[substitute].dispatch(k)

    def _drop(self, k: int) -> None:
        graph = self.graph
        graph.dropped.add(k)
        graph.finished_at[k] = self.env.now
        self.dropped += 1
        graph.complete(k)


def run_graph_robust(env: Environment, graph: Any, engines: Sequence[Any],
                     membership: Membership,
                     injector: Optional[Any] = None,
                     deadline_s: Optional[float] = None,
                     degradation: bool = True,
                     heartbeat_timeout_s: float = 0.02
                     ) -> RobustSyncReport:
    """Arm and execute ``graph`` under faults; completes or raises SyncAborted.

    The returned :class:`RobustSyncReport` carries the completion ledger
    (for the invariant checker), degradation counters, and the finish
    time.  On abort the same report is attached to the raised
    :class:`SyncAborted` as ``exc.report``.
    """
    report = RobustSyncReport(
        graph=graph, state=injector.state if injector is not None else None)
    controller = DegradationController(env, graph, engines, membership,
                                       enabled=degradation)

    graph.arm(list(engines))

    # The ledger closes over the list, not the report: the report holds
    # the graph, whose observers hold this function, and that cycle would
    # keep a dropped result's whole task graph alive until a collection.
    completions = report.completions

    def _record(graph: Any, k: int) -> None:
        recipe = graph.recipe
        completions.append(CompletionRecord(
            task_id=k, at=env.now, node=graph.nodes[k], kind=recipe.kinds[k],
            label=recipe.labels[k], ok=k not in graph.errors,
            dropped=k in graph.dropped))

    # The ledger observes every completion after its dependents are
    # released and before it counts toward the graph finishing.
    graph.observers.append(_record)

    if injector is not None and heartbeat_timeout_s is not None:
        state = injector.state  # not the injector: it holds _detect

        def _expire(node: int) -> None:
            # A fast restart beats the heartbeat: no declaration.
            if state.is_dead(node):
                membership.declare_dead(node)

        def _watch(node: int) -> None:
            env.call_later(heartbeat_timeout_s, _expire, node)

        def _detect(node: int) -> None:
            # The detector's start hop, then its heartbeat timeout.
            env.call_later(0.0, _watch, node, URGENT)

        injector.on_crash(_detect)
        # Crashes that already happened (e.g. the graph is armed mid-run)
        # get a detector too.
        for node in sorted(state.dead):
            _detect(node)

    def _unfinished() -> Tuple[str, ...]:
        kinds, labels = graph.recipe.kinds, graph.recipe.labels
        return tuple(f"{kinds[k]}:{labels[k]}@{graph.nodes[k]}"
                     for k in range(graph.num_tasks) if not graph.triggered[k])

    # The round is judged when ``verdict`` settles: the graph itself, or,
    # under a deadline, a verdict that settles one hop after the first of
    # the graph and the deadline timer, so a task finishing at the
    # deadline instant still counts as finished.
    verdict: Any = graph
    if deadline_s is not None:
        verdict = _Verdict(env)
        graph.on_settled.append(verdict.graph_settled)

        def _start_deadline(_value: None) -> None:
            env.call_later(deadline_s, verdict.settle)

        env.call_later(0.0, _start_deadline, None, URGENT)

    try:
        try:
            while not verdict.settled:
                env.step()
            if verdict.error is not None:
                raise verdict.error
        except FaultError as exc:  # a task failed
            raise SyncAborted("a peer died and degradation is disabled"
                              if not degradation else
                              "unrecoverable fault during synchronization",
                              env.now, cause=exc,
                              unfinished=_unfinished()) from exc
        if not (graph.finished and graph.error is None):
            raise DeadlineExceeded(deadline_s, env.now,
                                   unfinished=_unfinished())
        finish = env.now
    except SyncAborted as exc:
        report.aborted = True
        report.abort_reason = exc.reason
        report.finish_time = env.now
        _finalize(report, engines, membership, controller)
        exc.report = report
        raise
    except SimulationError as exc:
        # The agenda drained with the round incomplete: a deadlock.  The
        # typed-abort contract holds even for robustness-machinery bugs.
        report.aborted = True
        report.abort_reason = f"deadlock: {exc}"
        report.finish_time = env.now
        _finalize(report, engines, membership, controller)
        aborted = SyncAborted("deadlock", env.now, cause=exc,
                              unfinished=_unfinished())
        aborted.report = report
        raise aborted from exc

    report.finish_time = finish
    _finalize(report, engines, membership, controller)
    return report


class _Verdict:
    """A deadline round's verdict: :meth:`settle`, from the deadline timer
    (``error`` None) or the settled graph (its ``error``), pushes one
    entry at ``(now, NORMAL)``; the first call wins, and ``settled`` is
    set when its entry steps."""

    __slots__ = ("env", "pushed", "settled", "error")

    def __init__(self, env: Environment):
        self.env = env
        self.pushed = False
        self.settled = False
        self.error: Optional[BaseException] = None

    def graph_settled(self, graph: Any) -> None:
        self.settle(graph.error)

    def settle(self, error: Optional[BaseException] = None) -> None:
        if not self.pushed:
            self.pushed = True
            self.error = error
            self.env.call_later(0.0, self._step)

    def _step(self, _value: None) -> None:
        self.settled = True


def count_retries(engines: Sequence[Any]) -> int:
    """Failed transfer attempts: the engines' own sends plus the flushes
    of the bulk-sync coordinator they share."""
    coordinators = {getattr(e, "coordinator", None) for e in engines} - {None}
    return (sum(getattr(e, "retries", 0) for e in engines)
            + sum(c.retries for c in coordinators))


def _finalize(report: RobustSyncReport, engines: Sequence[Any],
              membership: Membership,
              controller: DegradationController) -> None:
    report.reassigned_tasks = controller.reassigned
    report.dropped_tasks = sum(1 for rec in report.completions if rec.dropped)
    report.declared_dead = membership.dead()
    report.retries = count_retries(engines)
