"""CaSync task system: primitives, dependency graph, per-node task manager.

This is the §3.1 architecture made executable.  Gradient synchronization is
decomposed into the five primitives -- encode, decode, merge, send, recv --
plus host-side ``cpu`` work.  A strategy's plan is lowered to a recipe,
and :func:`repro.casync.lower.instantiate` turns the recipe into the
static :class:`TaskGraph` of one training iteration (every message flow
is known up front); each node's :class:`NodeEngine` then executes its
tasks:

* computing tasks (encode/decode/merge/copy) queue into Q_comp and run on
  the GPU's communication stream, optionally *batch-compressed*: several
  small kernels ready at the same time fuse into one launch (§3.2).  Q_comp
  and the host-CPU queue are deques served by callback executors on
  agenda entries, not processes (see :class:`NodeEngine`);
* ``send`` tasks queue into Q_commu and either transfer directly over the
  fabric or go through the global bulk-sync :class:`Coordinator`, which
  batches small messages per link with a size/timeout policy (§3.2);
* ``recv`` is represented by cross-node dependencies: a task on the
  receiving node simply depends on the sender's ``send`` task, which
  completes when the bytes have arrived.

Order constraints are enforced exactly as in the paper: the dependency
graph drives asynchronous execution (Fig. 2 steps 1-3) off a static
:class:`SuccessorCSR`, one row per plan op.  A gradient's ready ref
(:meth:`TaskGraph.make_ready`) and a finished task or batch
(:meth:`TaskGraph.complete`, :meth:`TaskGraph.complete_many`) each take
one agenda entry, whose one loop releases the dependents and hands each
ready task to its executor.  An IR barrier is a *join* row, not a task.
"""

from __future__ import annotations

import functools
import math
import weakref
from array import array
from collections import deque
from dataclasses import dataclass
from typing import (Any, Callable, Deque, Dict, Iterator, List, Optional,
                    Sequence, Set, Tuple)

import numpy as np

from ..faults.errors import PeerDeadError
from ..faults.membership import Membership
from ..faults.retry import RetryPolicy
from ..gpu import Gpu, GpuSpec
from ..net import Fabric
from ..sim import Environment, SimulationError, URGENT

__all__ = ["TaskGraph", "SuccessorCSR", "NodeEngine", "Coordinator",
           "run_graph", "robust_transfer", "COMPUTE_KINDS", "ROUTES"]

#: Task kinds executed on the GPU communication stream.
COMPUTE_KINDS = ("encode", "decode", "merge", "copy")

#: Route codes (a recipe's ``routes``): the executor a task dispatches to.
#: Host-side work runs on a per-node CPU executor, not the GPU stream.
COMP, CPU, BULK_SEND, SEND = range(4)
#: Each task kind's route (a bulk send's is :data:`BULK_SEND`).
ROUTES = {**dict.fromkeys(COMPUTE_KINDS, COMP), "cpu": CPU, "send": SEND}

def _int_array(values: np.ndarray) -> array:
    """A NumPy int vector as a C-int ``array``, whose items index Python
    lists at full speed in the event loop."""
    return array("i", values.astype(np.intc, copy=False).tobytes())


class SuccessorCSR:
    """A static task DAG's edges as compressed sparse rows of C ints.

    Built once per graph shape, eagerly, with its lowered recipe, so
    arming an iteration allocates nothing per task.  Row ``i`` is plan
    op ``i``; its dependencies are ``dep_rows[dep_ptr[i]:dep_ptr[i + 1]]``
    (the :class:`~repro.casync.index.PlanIndex`'s own arrays), each an
    earlier row ``j >= 0`` or ``-1 - r`` for *ready ref* ``ref_keys[r]``,
    the backward pass's signal that gradient ``(node, gradient)`` is
    ready.  ``task_rows`` are tasks, every other row is a *join* (a
    barrier).  Each list below keeps registration order -- ascending
    dependent row, duplicate edges kept -- which is the order the
    dependents are released in:

    * row ``i``'s dependents: ``succ_idx[succ_ptr[i]:succ_ptr[i + 1]]``;
    * ready ref ``key``'s dependents, with ``r = refs[key]`` (keys in
      first-use order): ``ref_idx[ref_ptr[r]:ref_ptr[r + 1]]``;
    * ``indegree[i]`` counts every dependency entry of row ``i``;
      ``sources`` are the rows without any;
    * ``slot[i]`` is task row ``i``'s task index (its position in the
      recipe's columns), -1 for a join;
    * ``producers`` are the task rows that materialize a buffer, the only
      rows buffer accounting walks.
    """

    __slots__ = ("dep_ptr", "dep_rows", "ref_keys", "indegree", "sources",
                 "succ_ptr", "succ_idx", "refs", "ref_ptr", "ref_idx",
                 "slot", "producers")

    def __init__(self, dep_ptr: array, dep_rows: array,
                 ref_keys: Sequence[Tuple], task_rows: Sequence[int],
                 producers: Sequence[int]):
        # C-int views of the rows (no copy of the index's arrays).
        ptr = np.asarray(dep_ptr, dtype=np.intc)
        deps = np.asarray(dep_rows, dtype=np.intc)
        n = len(ptr) - 1
        indegree = np.diff(ptr)
        dependent = np.repeat(np.arange(n, dtype=np.intc), indegree)
        on_task = deps >= 0
        self.succ_ptr, self.succ_idx = self._group(
            deps[on_task], dependent[on_task], n)
        on_task ^= True
        self.ref_ptr, self.ref_idx = self._group(
            -1 - deps[on_task], dependent[on_task], len(ref_keys))
        del dependent, on_task
        slot = np.full(n, -1, dtype=np.intp)
        slot[np.asarray(task_rows, dtype=np.intp)] = np.arange(len(task_rows))
        self.slot = _int_array(slot)
        self.dep_ptr, self.dep_rows = dep_ptr, dep_rows
        self.ref_keys = ref_keys
        self.refs = {key: r for r, key in enumerate(ref_keys)}
        self.indegree = _int_array(indegree)
        self.sources = _int_array(np.flatnonzero(indegree == 0))
        self.producers = array("i", producers)

    @staticmethod
    def _group(keys: np.ndarray, values: np.ndarray,
               size: int) -> Tuple[array, array]:
        """CSR ``(ptr, idx)`` of ``values`` grouped by ``keys`` in
        ``range(size)``, each group in its original order: a sort of
        packed ``key << 32 | position`` int64s, a stable argsort's order."""
        ptr = np.zeros(size + 1, dtype=np.intp)
        np.cumsum(np.bincount(keys, minlength=size), out=ptr[1:])
        packed = keys.astype(np.int64) << 32
        packed |= np.arange(len(keys), dtype=np.int64)
        packed.sort()
        packed &= 0xFFFFFFFF
        return _int_array(ptr), _int_array(values[packed])

    def __len__(self) -> int:
        """The number of rows."""
        return len(self.dep_ptr) - 1

    def successors(self, i: int) -> array:
        """Row ``i``'s dependents, in registration order."""
        return self.succ_idx[self.succ_ptr[i]:self.succ_ptr[i + 1]]


class TaskGraph:
    """A static DAG of tasks spanning all nodes for one iteration.

    Every graph is a lowered recipe's instance
    (:func:`repro.casync.lower.instantiate`), and a task is an index
    ``k`` into its columns, in recipe order (joins have none).  The static
    columns are the recipe's lists (``rows``, each task's CSR row,
    ``kinds``, ``labels``, ``routes``, ``durations``, ...); the round's
    state is columns of the graph: ``started_at``/``finished_at`` (NaN
    until set), ``triggered`` (set by :meth:`complete`) and ``nodes``
    (the recipe's, until :meth:`reassign` copies it), plus the fault
    path's ``errors``, ``dropped`` and ``attempts``, keyed by task.

    ``bulk`` is the plan's bulk-synchronization decision (§3.2): a round
    running this graph gets a :class:`Coordinator` and batch-compressing
    engines exactly when it is set.

    Every signal is state on the graph plus one agenda entry at ``(now,
    NORMAL)``: a ready ref (:meth:`make_ready`), a finished task
    (:meth:`complete`) or batch (:meth:`complete_many`).  The entry
    releases the dependents in registration order (:meth:`_release`); a
    completion's also runs the ``observers`` and counts toward
    :attr:`finished`.  The graph *settles* one entry after it finished
    (:attr:`settled`, then ``on_settled``).  A join stamps
    :attr:`joined_at` and releases its dependents, if any, in the step
    its last dependency completes.
    """

    def __init__(self, env: Environment, recipe: Any):
        self.env = env
        self.recipe = recipe
        self.csr: SuccessorCSR = recipe.csr
        self.bulk: bool = recipe.bulk
        n = self.num_tasks = len(recipe.rows)
        unset = array("d", [math.nan])
        self.started_at = unset * n
        self.finished_at = unset * n
        self.triggered = bytearray(n)
        self.nodes: List[int] = recipe.nodes
        self.errors: Dict[int, BaseException] = {}
        self.dropped: Set[int] = set()
        self.attempts: Dict[int, int] = {}
        #: ``observer(graph, k)`` callables run at each completion of task
        #: ``k``, after its dependents are released (the fault ledger).
        self.observers: List[Callable[["TaskGraph", int], None]] = []
        #: Fire instant of each ready ref ``(node, gradient)``, by key;
        #: absent until :meth:`make_ready` fires it.
        self.ready_at: Dict[Tuple, float] = {}
        #: Release instant of each join row (by row), NaN for task rows and
        #: unreleased joins; :meth:`arm` allocates it with the pending
        #: counts, the round's other per-row state.
        self.joined_at = array("d")
        #: Set when every task has completed, or at the first failure,
        #: which :attr:`error` keeps.
        self.finished = False
        self.error: Optional[BaseException] = None
        #: Set by the entry :attr:`finished` pushes, which then calls each
        #: ``on_settled`` callable with the graph.
        self.settled = False
        self.on_settled: List[Callable[["TaskGraph"], None]] = []
        self._engines: List[Optional["NodeEngine"]] = []  # by node
        self._agenda_lanes = env.lanes  # never rebound (Environment.lanes)
        self._pending: Optional[List[int]] = None
        self._remaining = 0

    def reassign(self, k: int, node: int) -> None:
        """Move task ``k`` to ``node``; the first move copies ``nodes``."""
        if self.nodes is self.recipe.nodes:
            self.nodes = list(self.nodes)
        self.nodes[k] = node

    def predecessors(self, k: int) -> Tuple:
        """Task ``k``'s distinct dependencies (task indices and ready-ref
        keys), in order, with each join replaced by its own,
        transitively."""
        return tuple(dict.fromkeys(self._deps(self.recipe.rows[k])))

    def _deps(self, i: int) -> Iterator[Any]:
        csr = self.csr
        slot = csr.slot
        for j in csr.dep_rows[csr.dep_ptr[i]:csr.dep_ptr[i + 1]]:
            if j < 0:
                yield csr.ref_keys[-1 - j]
            elif slot[j] >= 0:
                yield slot[j]
            else:
                yield from self._deps(j)

    def arm(self, engines: List["NodeEngine"]) -> None:
        """Bind the engines and start the source rows, in row order.

        Pending counts start from the CSR's indegrees, ready refs
        included: a ref counts once its :meth:`make_ready` entry steps,
        which must come after this call.
        """
        tel = self.env.telemetry
        if tel is not None:
            # Capture the DAG so exported timelines can be cross-checked
            # against the dependencies that produced them.
            tel.register_task_graph(self)
        by_node: List[Optional[NodeEngine]] = [None] * (
            1 + max((e.node for e in engines), default=-1))
        for engine in engines:
            by_node[engine.node] = engine
            engine.graph = self
            if engine.coordinator is not None:
                engine.coordinator.graph = self
        self._engines = by_node
        self._pending = self.csr.indegree.tolist()
        self.joined_at = array("d", [math.nan]) * len(self.csr)
        self._remaining = self.num_tasks
        self._start_rows(self.csr.sources)
        if not self.num_tasks:
            self._finish()

    def make_ready(self, node: int, gradient: str) -> None:
        """Fire the ready ref ``(node, gradient)`` now: one agenda entry at
        ``(now, NORMAL)`` releases its dependents.  A second call, or a
        key no row depends on, raises :class:`SimulationError`."""
        key = (node, gradient)
        if key not in self.csr.refs:
            raise SimulationError(f"no row depends on ready ref {key}")
        if key in self.ready_at:
            raise SimulationError(f"ready ref {key} has already fired")
        self.ready_at[key] = self.env.now
        self.env.call_later(0.0, self._on_ready, key)

    def _on_ready(self, key: Tuple) -> None:
        if self._pending is None:
            raise SimulationError(
                f"ready ref {key} fired before the graph was armed")
        if self.finished and self.error is None:
            return  # unbound: nothing is left to release
        csr = self.csr
        r = csr.refs[key]
        self._release(csr.ref_idx[csr.ref_ptr[r]:csr.ref_ptr[r + 1]])

    def _start_rows(self, rows: Sequence[int]) -> None:
        """Start ``rows``, which wait on nothing, in order: each is
        re-armed at one pending dependency and released."""
        pending = self._pending
        for i in rows:
            pending[i] = 1
        self._release(rows)

    def _release(self, dependents: Sequence[int],
                 batch: Optional[Sequence[int]] = None) -> None:
        """Count ``dependents`` down and start each row that reaches zero,
        in order: a join records the instant and releases its own
        dependents, if it has any; a task goes to its executor by route
        code, or through :meth:`NodeEngine.dispatch` if force-completed
        or its engine is halted.  Given a completion entry's ``batch``,
        release each task's dependents instead, then run the observers,
        count it toward :attr:`finished` and yield the rest of the batch
        to any entry pushed ahead of ``(now, NORMAL)``."""
        csr, recipe, env = self.csr, self.recipe, self.env
        succ_ptr, succ_idx, slot = csr.succ_ptr, csr.succ_idx, csr.slot
        rows, routes = recipe.rows, recipe.routes
        pending, joined_at = self._pending, self.joined_at
        engines, triggered = self._engines, self.triggered
        now, lanes = env.now, self._agenda_lanes
        last = -1 if batch is None else len(batch) - 1
        for pos, k in enumerate((None,) if batch is None else batch):
            if batch is not None:
                dependents = succ_idx[succ_ptr[rows[k]]:succ_ptr[rows[k] + 1]]
            nodes = self.nodes  # read now: a task may have been reassigned
            for j in dependents:
                left = pending[j] - 1
                pending[j] = left
                if left:
                    continue
                t = slot[j]
                if t < 0:
                    joined_at[j] = now
                    if succ_ptr[j] != succ_ptr[j + 1]:
                        self._release(succ_idx[succ_ptr[j]:succ_ptr[j + 1]])
                    continue
                try:
                    engine = engines[nodes[t]]
                except IndexError:
                    engine = None
                if engine is None:
                    raise ValueError(f"no engine for node {nodes[t]}")
                if engine.halted or triggered[t]:
                    engine.dispatch(t)
                    continue
                route = routes[t]
                if route == COMP:
                    engine.q_comp.put(t, engine._comp_take)
                elif route == CPU:
                    engine.q_cpu.put(t, engine._cpu_take)
                elif route == BULK_SEND and engine.coordinator is not None:
                    engine.coordinator.submit(t)
                else:
                    engine._send_inline(t)
            if batch is None:
                return
            for observer in self.observers:
                observer(self, k)
            if not self.finished:
                self._remaining -= 1
                if self.errors and k in self.errors:
                    self.error = self.errors[k]
                    self._finish()
                elif not self._remaining:
                    self._finish()
            if (pos < last and lanes[URGENT]
                    and env.yield_front(self._on_complete, batch[pos + 1:])):
                return

    def complete(self, k: int, error: Optional[BaseException] = None) -> None:
        """Complete task ``k`` now, failed with ``error`` if given: one
        agenda entry at ``(now, NORMAL)``.  A second call raises
        :class:`SimulationError`."""
        if self.triggered[k]:
            raise SimulationError(
                f"task {k} ({self.recipe.labels[k]!r}) has already been "
                "completed")
        self.triggered[k] = 1
        if error is not None:
            self.errors[k] = error
        self.env.call_later(0.0, self._on_complete, (k,))

    def complete_many(self, batch: List[int]) -> None:
        """:meth:`complete` for each task of ``batch``, in order, from one
        entry; the rest of the batch yields to any entry a completion
        pushes ahead of it (:meth:`Environment.yield_front`), so the order
        is the per-task one.  A completed task raises."""
        triggered = self.triggered
        for k in batch:
            if triggered[k]:
                raise SimulationError(
                    f"task {k} ({self.recipe.labels[k]!r}) has already "
                    "been completed")
            triggered[k] = 1
        if batch:  # an empty batch pushes nothing, like no complete() call
            self.env.call_later(0.0, self._on_complete, batch)

    def _on_complete(self, batch: Sequence[int]) -> None:
        """A batch's completion entry: one :meth:`_release` loop."""
        self._release((), batch)

    def _finish(self) -> None:
        """Mark every task complete and push the settle entry."""
        self.finished = True
        self.env.call_later(0.0, self._settle)

    def disarm(self) -> None:
        """Unbind the engines and the coordinator once nothing steps the
        round any more (:func:`run_graph`, or ``_run_round`` after its
        retries drain): their back-references would put this graph in a
        reference cycle, so a finished round frees by reference counting.
        """
        for engine in self._engines:
            if engine is None:
                continue
            if engine.graph is self:
                engine.graph = None
            coordinator = engine.coordinator
            if coordinator is not None and coordinator.graph is self:
                coordinator.graph = None
        self._engines = []

    def _settle(self, _value: None) -> None:
        self.settled = True
        for callback in self.on_settled:
            callback(self)


def robust_transfer(env: Environment, fabric: Fabric, src: int, dst: int,
                    nbytes: float, policy: RetryPolicy,
                    done: Callable[[str, int], None],
                    membership: Optional[Membership] = None,
                    degradation: bool = True,
                    on_retry: Optional[Callable[[], None]] = None,
                    graph: Optional[TaskGraph] = None,
                    task: int = -1) -> None:
    """Move ``nbytes`` src->dst with timeout/backoff/retries.

    The one retry loop (engine sends and coordinator flushes), a callback
    state machine over :meth:`Fabric.issue`.  The contract:

    * an attempt is one ``issue`` (from an URGENT agenda entry) plus one
      timeout entry scaled from the uncontended transfer time to its
      current target (:meth:`Fabric.pair_transfer_time`), and whichever
      settles first cancels the other: a timeout gives the attempt up
      (:meth:`Fabric.abandon`; under faults its bytes log as dropped);
    * a failed attempt -- dropped (``TransferError``) or timed out --
      is retried after an exponential backoff entry;
    * when the budget for a destination is exhausted, the peer is declared
      dead in ``membership``; with ``degradation`` the transfer re-routes
      to the peer's deterministic substitute and starts a fresh budget.

    ``on_retry`` is called once per failed attempt.  A sender moving one
    task passes its ``graph`` and ``task`` index: each attempt is counted
    in ``graph.attempts[task]``, and once the fault machinery has
    force-completed the task the loop stops with outcome ``"forced"``.
    (The graph is held weakly: an attempt in flight when the round ends
    is a reference cycle, which must not keep the graph alive.)

    Ends in ``done(outcome, final_dst)``, where outcome is ``"delivered"``
    (bytes arrived at final_dst), ``"local"`` (routing collapsed onto the
    sender: nothing crosses the wire; ``done`` runs before this returns),
    ``"forced"``, or ``"dead"`` (no membership / no degradation / no live
    node to fall back on -- the caller decides whether that aborts the
    round).
    """
    _RetryLoop(env, fabric, src, dst, nbytes, policy, done, membership,
               degradation, on_retry,
               None if graph is None else weakref.ref(graph), task).route()


@dataclass(eq=False)
class _RetryLoop:
    """The state of one :func:`robust_transfer` call: an object, freed
    by reference counting once its attempt and timer settle, where
    closures calling each other would form a reference cycle per message.
    """

    env: Environment
    fabric: Fabric
    src: int
    dst: int
    nbytes: float
    policy: RetryPolicy
    done: Callable[[str, int], None]
    membership: Optional[Membership]
    degradation: bool
    on_retry: Optional[Callable[[], None]]
    graph: Optional["weakref.ref[TaskGraph]"]
    task: int
    target: int = -1
    attempt: int = 0  # at the current target; equals its failures
    xfer: Any = None  # the pending attempt's fabric handle
    timer: Optional[List[Any]] = None  # the timeout's agenda entry

    def route(self) -> None:
        membership = self.membership
        self.target = (membership.route(self.dst)
                       if membership is not None else self.dst)
        self.attempt = 0
        if self.target == self.src:
            self.done("local", self.src)
        else:
            self.decide()

    def decide(self, _value: None = None) -> None:
        graph = None if self.graph is None else self.graph()
        task, membership = self.task, self.membership
        if graph is not None and graph.triggered[task]:
            self.done("forced", self.target)
        elif membership is not None and not membership.is_alive(self.target):
            self.exhausted()  # someone else already declared this peer dead
        else:
            if graph is not None:
                graph.attempts[task] = graph.attempts.get(task, 0) + 1
            self.env.call_later(0.0, self.issue, None, URGENT)

    def issue(self, _value: None) -> None:
        src, dst, nbytes = self.src, self.target, self.nbytes
        self.xfer = self.fabric.issue(src, dst, nbytes, self.delivered, None,
                                      on_fail=self.failed)
        expected = self.fabric.pair_transfer_time(src, dst, nbytes)
        self.timer = self.env.call_later(
            self.policy.attempt_timeout(expected, self.attempt),
            self.timed_out)

    def delivered(self, _token: object) -> None:
        self.env.cancel(self.timer)
        self.xfer = self.timer = None
        self.done("delivered", self.target)

    def timed_out(self, _value: None) -> None:
        self.fabric.abandon(self.xfer)
        self.failed()  # the timer has fired: cancelling it is a no-op

    def failed(self, _token: object = None,
               _error: Optional[Exception] = None) -> None:
        self.env.cancel(self.timer)
        self.xfer = self.timer = None
        if self.on_retry is not None:
            self.on_retry()
        if self.membership is not None:
            self.membership.suspect(self.target)
        self.attempt += 1
        if self.attempt < self.policy.max_attempts:
            self.env.call_later(self.policy.backoff(self.attempt),
                                self.decide)
        else:
            self.exhausted()

    def exhausted(self) -> None:
        membership = self.membership
        if membership is not None:
            membership.declare_dead(self.target)
            # With every node declared dead there is no substitute left.
            if self.degradation and membership.alive():
                self.route()  # membership.route now yields the substitute
                return
        self.done("dead", self.target)


class _Link:
    """A :class:`Coordinator` link's queue: tasks, bytes, oldest arrival."""

    __slots__ = ("tasks", "nbytes", "since")

    def __init__(self, since: float):
        self.tasks: List[int] = []
        self.nbytes = 0
        self.since = since


class Coordinator:
    """Global bulk-synchronization coordinator (§3.2).

    Collects small ``send`` tasks into per-link queues and flushes each
    link's queue as one batched transfer when it reaches
    ``size_threshold`` bytes or its oldest entry ages past ``timeout_s``
    -- "the size of each batch is decided based on a specified timeout or
    a size threshold, whichever is met first".

    A link ``src -> dst`` is keyed ``src * num_nodes + dst`` (the
    fabric's node count) and has one :class:`_Link` while it waits.  Every
    flush issues from one URGENT agenda entry (:meth:`_flush_keys`),
    which sends each batch as one message: through :meth:`Fabric.issue`
    without a ``retry_policy``, through its own :func:`robust_transfer`
    with one.  The timeout check is a ticker of agenda entries
    (:meth:`_next_tick`).
    """

    def __init__(self, env: Environment, fabric: Fabric,
                 size_threshold: float = 4 * 1024 * 1024,
                 timeout_s: float = 0.0005,
                 retry_policy: Optional[RetryPolicy] = None,
                 membership: Optional[Membership] = None,
                 degradation: bool = True):
        if not size_threshold > 0:  # also rejects NaN
            raise ValueError("size_threshold must be positive")
        if not 0 < timeout_s < math.inf:  # also rejects NaN
            raise ValueError("timeout must be positive and finite")
        self.env = env
        self.fabric = fabric
        self.retry_policy = retry_policy
        self.membership = membership
        self.degradation = degradation
        self.size_threshold = size_threshold
        self.timeout_s = timeout_s
        self._num_nodes = fabric.num_nodes
        #: Each waiting link's queue, by key, in the order it opened.
        self._links: Dict[int, _Link] = {}
        #: The armed graph whose tasks this coordinator completes.
        self.graph: Optional[TaskGraph] = None
        self._ticker_running = False
        self.batches_flushed = 0
        self.tasks_batched = 0
        #: Failed flush attempts under a retry policy.
        self.retries = 0

    def submit(self, k: int) -> None:
        """Queue the graph's bulk send ``k`` on its link."""
        graph = self.graph
        recipe = graph.recipe
        key = graph.nodes[k] * self._num_nodes + recipe.dsts[k]
        link = self._links.get(key)
        if link is None:
            link = self._links[key] = _Link(self.env.now)
        link.tasks.append(k)
        link.nbytes = total = link.nbytes + recipe.nbytes[k]  # in order
        if total >= self.size_threshold:
            self._flush_keys([key])
        elif not self._ticker_running:
            self._ticker_running = True
            self.env.call_later(0.0, self._next_tick, None, URGENT)

    def _drain(self, key: int) -> Tuple:
        """Pop ``key``'s queue as one batch whose sends start now.

        Returns ``(src, dst, tasks, nbytes, span)``; ``span`` is the
        batch's telemetry span, None without a collector.
        """
        link = self._links.pop(key)
        tasks, nbytes = link.tasks, link.nbytes
        now = self.env.now
        started = self.graph.started_at
        for k in tasks:
            started[k] = now
        self.batches_flushed += 1
        self.tasks_batched += len(tasks)
        src, dst = divmod(key, self._num_nodes)
        tel = self.env.telemetry
        span = None
        if tel is not None:
            span = tel.begin(f"bulk:{src}->{dst}", category="coordinator",
                             track=f"node{src}/coordinator", at=now,
                             nbytes=nbytes, tasks=len(tasks),
                             task_ids=list(tasks))
            tel.metrics.counter("coordinator.batches").inc()
            tel.metrics.counter("coordinator.tasks_batched").inc(len(tasks))
            tel.metrics.histogram("coordinator.batch_bytes").observe(nbytes)
        return src, dst, tasks, nbytes, span

    def _count_retry(self) -> None:
        self.retries += 1

    def _flush_keys(self, keys: List[int]) -> None:
        """Flush link queues from one URGENT *issue* entry.

        Queues are drained here, but NIC reservation waits for the issue
        entry: reserving eagerly would jump ahead of a same-instant
        URGENT entry already in the agenda (an inline send's issue).
        Same-instant URGENT entries run back to back, so the keys of one
        tick share one issue entry without anything interleaving.
        """
        batches = [self._drain(key) for key in keys]
        self.env.call_later(0.0, self._issue_batches, batches, URGENT)

    def _issue_batches(self, batches: List[Tuple]) -> None:
        """Send each flushed batch as one message, in key order."""
        policy = self.retry_policy
        for batch in batches:
            src, dst, _, nbytes, span = batch
            if policy is None:
                self.fabric.issue(src, dst, nbytes, self._settle, batch,
                                  span_parent=span)
            else:
                robust_transfer(self.env, self.fabric, src, dst, nbytes,
                                policy,
                                functools.partial(self._settle, batch),
                                self.membership, self.degradation,
                                on_retry=self._count_retry)

    def _settle(self, batch: Tuple, outcome: str = "delivered",
                _final_dst: Optional[int] = None) -> None:
        """Complete a flushed batch's tasks with its transfer's outcome."""
        src, dst, tasks, _, span = batch
        now = self.env.now
        tel = self.env.telemetry
        if tel is not None:
            tel.finish(span, now, outcome=outcome)
        graph = self.graph
        triggered, finished = graph.triggered, graph.finished_at
        tasks = [k for k in tasks if not triggered[k]]
        for k in tasks:
            finished[k] = now
            if outcome == "dead":
                graph.complete(k, PeerDeadError(
                    src, dst, graph.recipe.nbytes[k],
                    self.retry_policy.max_attempts))
            elif outcome == "local":
                graph.dropped.add(k)
                graph.complete(k)
        if outcome == "delivered":
            graph.complete_many(tasks)

    def _next_tick(self, _value: None = None) -> None:
        """Schedule the next tick while any queue waits, else retire."""
        if self._links:
            self.env.call_later(self.timeout_s / 2, self._tick)
        else:
            self._ticker_running = False

    def _tick(self, _value: None) -> None:
        """Flush queues whose oldest entry exceeded the timeout."""
        now = self.env.now
        due = [key for key, link in self._links.items()
               if now - link.since >= self.timeout_s]
        if due:
            self._flush_keys(due)
        self._next_tick()


class _TaskQueue:
    """One executor's FIFO of task indices: ``take(k)`` runs in an URGENT
    hop; the executor calls :meth:`next` when done.  ``take``, the owning
    engine's bound method, is passed on every call: storing it would make
    a reference cycle that outlives the round.
    """

    __slots__ = ("env", "tasks", "idle")

    def __init__(self, env: Environment, take: Callable[[int], None]):
        self.env = env
        self.tasks: Deque[int] = deque()
        #: Nothing queued, taken or running: the next put takes at once.
        self.idle = False
        env.call_later(0.0, self.next, take, URGENT)

    def put(self, k: int, take: Callable[[int], None]) -> None:
        if self.idle:
            self.idle = False
            self.env.call_later(0.0, take, k, URGENT)
        else:
            self.tasks.append(k)

    def next(self, take: Callable[[int], None]) -> None:
        """Take the next queued task in a hop, or go idle."""
        if self.tasks:
            self.env.call_later(0.0, take, self.tasks.popleft(), URGENT)
        else:
            self.idle = True


class NodeEngine:
    """Per-node task manager: Q_comp and Q_commu executors (Fig. 2).

    Tasks are indices into the armed graph's columns.  When the graph is
    ``bulk``, all simultaneously-ready computing tasks fuse into a single
    kernel launch, the §3.2 batch-compression optimization.  Sends go
    through the coordinator (bulk sends, when one is attached) or
    :meth:`_send_inline`, which hands the send to :meth:`Fabric.issue`
    directly or, under a ``retry_policy``, to :func:`robust_transfer`,
    in the releasing entry unless an URGENT entry waits ahead of it.

    The compression and CPU executors are callback state machines over
    a :class:`_TaskQueue` (``docs/SIM_CORE.md``): a construction-time
    URGENT hop, then per task a *take* hop at ``(now, URGENT)`` that
    forms the batch and starts its work, or orphans the task if the
    engine halted meanwhile.  A batch's kernel starts inside the take
    hop (:meth:`Gpu.run_kernel`), so a batch, like a CPU task, takes
    one more entry: its finish.  Task spans are opened only under a
    collector.
    """

    #: Upper bound on the bytes fused into one batched kernel.
    BATCH_LIMIT_BYTES = 256 * 1024 * 1024

    def __init__(self, env: Environment, node: int, gpu: Gpu, fabric: Fabric,
                 coordinator: Optional[Coordinator] = None,
                 retry_policy: Optional[RetryPolicy] = None,
                 membership: Optional[Membership] = None,
                 degradation: bool = True):
        self.env = env
        self.node = node
        self.gpu = gpu
        self.fabric = fabric
        self.coordinator = coordinator
        #: When set, sends run under timeout/backoff/bounded-retry; when
        #: None, the pristine (pre-fault-subsystem) send path is used.
        self.retry_policy = retry_policy
        self.membership = membership
        self.degradation = degradation
        #: The armed graph whose tasks this engine completes.
        self.graph: Optional[TaskGraph] = None
        self.halted = False
        #: Tasks stranded on this engine by a crash (swept by the
        #: degradation controller once the death is *declared*).
        self.orphans: List[int] = []
        self.retries = 0
        self._agenda_lanes = env.lanes  # never rebound (Environment.lanes)
        self.q_comp = _TaskQueue(env, self._comp_take)
        self.q_cpu = _TaskQueue(env, self._cpu_take)
        self.compute_busy = 0.0
        self.cpu_busy = 0.0
        self.send_busy = 0.0

    def halt(self) -> List[int]:
        """Fail-stop this engine (ground-truth crash).

        Queued tasks are stranded into :attr:`orphans` -- deliberately NOT
        completed here: survivors must not observe the crash before their
        failure detector declares it.  Returns the newly stranded tasks.
        """
        self.halted = True
        stranded = [*self.q_comp.tasks, *self.q_cpu.tasks]
        self.q_comp.tasks.clear()
        self.q_cpu.tasks.clear()
        self.orphans.extend(stranded)
        return stranded

    def resume(self) -> None:
        """Un-halt after a restart and re-dispatch stranded tasks.

        Tasks the degradation controller already reassigned or dropped
        while we were down are skipped naturally (reassignment removed
        them from :attr:`orphans`; drops show as triggered completions).
        """
        self.halted = False
        orphans, self.orphans = self.orphans, []
        for k in orphans:
            self.dispatch(k)

    def dispatch(self, k: int) -> None:
        """Route the armed graph's ready task ``k`` to its executor: the
        entry for a resumed or reassigned orphan, and for a release that
        found ``k`` force-completed or this engine halted."""
        graph = self.graph
        if graph.triggered[k]:
            return  # already force-completed by the fault machinery
        if self.halted:
            if (self.membership is not None
                    and not self.membership.is_alive(self.node)):
                # This node is declared dead: the degradation sweep already
                # ran, so late arrivals drop-complete to unblock dependents.
                graph.dropped.add(k)
                graph.finished_at[k] = self.env.now
                graph.complete(k)
            else:
                self.orphans.append(k)
            return
        graph._start_rows((graph.recipe.rows[k],))

    def _task_span(self, tel, k: int, at: float):
        """Open task ``k``'s span on the attached collector ``tel``;
        callers test for one first, so an untraced task enters no frame."""
        recipe = self.graph.recipe
        kind = recipe.kinds[k]
        return tel.begin(recipe.labels[k] or kind, category=kind,
                         track=f"node{self.node}/{kind}", at=at,
                         task=k, nbytes=recipe.nbytes[k])

    def _send_inline(self, k: int) -> None:
        """Hand send ``k`` to :meth:`Fabric.issue` (or :func:`robust_transfer`)
        in this entry, or from a hop at ``(now, URGENT)`` if an URGENT
        entry waits at this instant, which must reserve or start first.
        Into an empty lane the hop would step next, so issuing in place
        keeps the order (``docs/SIM_CORE.md``)."""
        if self._agenda_lanes[URGENT]:
            self.env.call_later(0.0, self._issue_send, k, URGENT)
        else:
            self._issue_send(k)

    def _issue_send(self, k: int) -> None:
        graph = self.graph
        dst, nbytes = graph.recipe.dsts[k], graph.recipe.nbytes[k]
        now = graph.started_at[k] = self.env.now
        tel = self.env.telemetry
        span = None if tel is None else self._task_span(tel, k, now)
        if self.retry_policy is None:
            self.fabric.issue(graph.nodes[k], dst, nbytes, self._finish_send,
                              (k, span), span_parent=span)
            return
        done = functools.partial(self._finish_robust, k, span,
                                 graph.attempts.get(k, 0))
        robust_transfer(self.env, self.fabric, self.node, dst,
                        nbytes, self.retry_policy, done,
                        self.membership, self.degradation,
                        on_retry=self._count_retry, graph=graph, task=k)

    def _finish_send(self, token: Tuple[int, Any]) -> None:
        k, span = token
        graph = self.graph
        now = graph.finished_at[k] = self.env.now
        self.send_busy += now - graph.started_at[k]
        if span is not None:
            self.env.telemetry.finish(span, now, dst=graph.recipe.dsts[k])
        if not graph.triggered[k]:
            graph.complete(k)

    def _finish_robust(self, k: int, span, before: int, outcome: str,
                       final_dst: int) -> None:
        """Complete a send with its retry loop's outcome."""
        graph = self.graph
        now = graph.finished_at[k] = self.env.now
        self.send_busy += now - graph.started_at[k]
        attempts = graph.attempts.get(k, 0) - before
        if span is not None:
            self.env.telemetry.finish(span, now, outcome=outcome,
                                      dst=final_dst, attempts=attempts)
        if graph.triggered[k]:
            return  # force-completed while we were retrying
        if outcome == "dead":
            graph.complete(k, PeerDeadError(
                self.node, final_dst, graph.recipe.nbytes[k], attempts))
        else:
            if outcome == "local":
                graph.dropped.add(k)
            graph.complete(k)

    def _count_retry(self) -> None:
        self.retries += 1

    def _cpu_take(self, k: int) -> None:
        """Serial host-CPU worker (BytePS-style server aggregation)."""
        if self.halted:
            self.orphans.append(k)
            self.q_cpu.next(self._cpu_take)
            return
        graph = self.graph
        now = graph.started_at[k] = self.env.now
        tel = self.env.telemetry
        span = None if tel is None else self._task_span(tel, k, now)
        self.env.call_later(graph.recipe.durations[k], self._cpu_finish,
                            (k, span))

    def _cpu_finish(self, work: Tuple[int, Any]) -> None:
        k, span = work
        graph = self.graph
        now = graph.finished_at[k] = self.env.now
        self.cpu_busy += graph.recipe.durations[k]
        if span is not None:
            self.env.telemetry.finish(span, now)
        if not graph.triggered[k]:
            graph.complete(k)
        self.q_cpu.next(self._cpu_take)

    def _comp_take(self, first: int) -> None:
        """Launch the taken task, fused with queued ones on a bulk graph."""
        if self.halted:
            self.orphans.append(first)
            self.q_comp.next(self._comp_take)
            return
        graph = self.graph
        recipe = graph.recipe
        batch = [first]
        if graph.bulk:
            queue, nbytes = self.q_comp.tasks, recipe.nbytes
            total = nbytes[first]
            while total < self.BATCH_LIMIT_BYTES and queue:
                extra = queue.popleft()
                batch.append(extra)
                total += nbytes[extra]
        durations = recipe.durations
        if len(batch) == 1:
            duration = durations[first]
        else:
            # One fused launch pays the largest launch overhead once.  A
            # left fold, not ``sum``, which rounds differently from 3.12.
            launches = recipe.launch_overheads
            work, launch = 0.0, launches[first]
            for k in batch:
                overhead = launches[k]
                work += durations[k] - overhead
                if overhead > launch:
                    launch = overhead
            duration = work + launch
        start = self.env.now
        started = graph.started_at
        for k in batch:
            started[k] = start
        spans = []
        tel = self.env.telemetry
        if tel is not None:
            for k in batch:
                span = self._task_span(tel, k, start)
                spans.append(span)
                if len(batch) > 1:
                    span.attrs["fused"] = len(batch)
        # The fused kernel is a child of the first task's span, so the
        # flame view attributes GPU time to the work that launched it.
        self.gpu.run_kernel(duration, self._comp_finish,
                            (batch, start, spans), category="compression",
                            span_parent=spans[0] if spans else None)

    def _comp_finish(self, token: Tuple[List[int], float, List]) -> None:
        batch, start, spans = token
        now = self.env.now
        self.compute_busy += now - start
        if spans:  # opened only under a collector
            for span in spans:
                self.env.telemetry.finish(span, now)
        graph = self.graph
        finished, triggered = graph.finished_at, graph.triggered
        for k in batch:
            finished[k] = now
        graph.complete_many([k for k in batch if not triggered[k]])
        self.q_comp.next(self._comp_take)


def run_graph(env: Environment, graph: TaskGraph,
              engines: List[NodeEngine]) -> float:
    """Arm and execute a task graph until it settles; returns the finish
    time, or raises the first task failure."""
    graph.arm(engines)
    try:
        while not graph.settled:
            env.step()
    finally:
        graph.disarm()
    if graph.error is not None:
        raise graph.error
    return env.now
