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
graph drives asynchronous execution (Fig. 2 steps 1-3).  The graph's
edges are a static :class:`SuccessorCSR`, one row per plan op.  The
backward pass fires each gradient's ready ref through
:meth:`TaskGraph.make_ready` and executors report a finished task through
:meth:`TaskGraph.complete`; either way one agenda entry releases the
dependents, so a round allocates no event, dependency list or callback
per task or per gradient.  An IR barrier is a *join* row, not a task: it
releases its dependents in the step its last dependency completes.
"""

from __future__ import annotations

import functools
import itertools
import math
from array import array
from collections import deque
from dataclasses import dataclass
from typing import (Any, Callable, Deque, Dict, Iterable, Iterator, List,
                    Optional, Sequence, Tuple)

import numpy as np

from ..faults.errors import PeerDeadError
from ..faults.membership import Membership
from ..faults.retry import RetryPolicy
from ..gpu import Gpu, GpuSpec
from ..net import Fabric
from ..sim import Environment, SimulationError, URGENT

__all__ = ["Task", "TaskGraph", "SuccessorCSR", "NodeEngine", "Coordinator",
           "run_graph", "robust_transfer", "COMPUTE_KINDS"]

#: Task kinds executed on the GPU communication stream.
COMPUTE_KINDS = ("encode", "decode", "merge", "copy")
#: Host-side work (BytePS-style CPU aggregation) runs on a per-node CPU
#: executor instead of the GPU stream.
_ALL_KINDS = COMPUTE_KINDS + ("cpu", "send")

_task_counter = itertools.count()


class Task:
    """One unit of work in the synchronization DAG.

    Completion is per-task state, not an event: :meth:`TaskGraph.complete`
    sets ``triggered`` (and ``error`` for a failed task) and schedules the
    agenda entry that releases the task's dependents.
    """

    __slots__ = ("id", "index", "node", "kind", "label", "duration",
                 "launch_overhead", "nbytes", "out_nbytes", "dst", "bulk",
                 "triggered", "error", "started_at", "finished_at",
                 "dropped", "attempts")

    def __init__(self, index: int, node: int, kind: str, label: str = "",
                 duration: float = 0.0, launch_overhead: float = 0.0,
                 nbytes: float = 0.0, dst: Optional[int] = None,
                 bulk: bool = False, out_nbytes: Optional[float] = None):
        if kind not in _ALL_KINDS:
            raise ValueError(f"unknown task kind {kind!r}")
        if kind == "send" and dst is None:
            raise ValueError("send tasks need a destination node")
        if not (0 <= duration < math.inf and 0 <= launch_overhead < math.inf):
            raise ValueError(f"negative or non-finite duration {duration} "
                             f"or launch overhead {launch_overhead}")
        self.id = next(_task_counter)
        #: Its CSR row: the index of the plan op it was lowered from.
        self.index = index
        self.node = node
        self.kind = kind
        self.label = label
        self.duration = duration
        self.launch_overhead = launch_overhead
        self.nbytes = nbytes
        #: Size of the buffer this task materializes (None = no allocation).
        self.out_nbytes = out_nbytes
        self.dst = dst
        self.bulk = bulk
        #: True once :meth:`TaskGraph.complete` scheduled the completion.
        self.triggered = False
        #: The exception a failed completion carries (None = success).
        self.error: Optional[BaseException] = None
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        #: Set by the fault machinery when this task's work was abandoned
        #: (its completion still fires so dependents unblock).
        self.dropped = False
        #: Transfer attempts made for this task (sends under a RetryPolicy).
        self.attempts = 0

    def __repr__(self) -> str:
        return f"<Task {self.kind} {self.label!r} @node{self.node}>"


def _int_array(values: np.ndarray) -> array:
    """A NumPy int vector as a C-int ``array``, whose items index Python
    lists at full speed in the event loop."""
    return array("i", values.astype(np.intc).tobytes())


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
    * ``slot[i]`` is task row ``i``'s position in the graph's ``tasks``,
      -1 for a join;
    * ``producers`` are the task rows that materialize a buffer, the only
      rows buffer accounting walks.
    """

    __slots__ = ("dep_ptr", "dep_rows", "ref_keys", "indegree", "sources",
                 "succ_ptr", "succ_idx", "refs", "ref_ptr", "ref_idx",
                 "slot", "producers")

    def __init__(self, dep_ptr: array, dep_rows: array,
                 ref_keys: Sequence[Tuple], task_rows: Sequence[int],
                 producers: Iterable[int]):
        # One stable sort of the edges by the depended-on row (or ref)
        # groups each row's dependents in ascending dependent order.
        ptr = np.asarray(dep_ptr, dtype=np.intp)
        deps = np.asarray(dep_rows, dtype=np.intp)
        n = len(ptr) - 1
        indegree = np.diff(ptr)
        dependent = np.repeat(np.arange(n, dtype=np.intp), indegree)
        on_task = deps >= 0
        self.succ_ptr, self.succ_idx = self._group(
            deps[on_task], dependent[on_task], n)
        self.ref_ptr, self.ref_idx = self._group(
            -1 - deps[~on_task], dependent[~on_task], len(ref_keys))
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
        ``range(size)``, each group in its original order."""
        ptr = np.zeros(size + 1, dtype=np.intp)
        np.cumsum(np.bincount(keys, minlength=size), out=ptr[1:])
        idx = values[np.argsort(keys, kind="stable")]
        return _int_array(ptr), _int_array(idx)

    def __len__(self) -> int:
        """The number of rows."""
        return len(self.dep_ptr) - 1

    def successors(self, i: int) -> array:
        """Row ``i``'s dependents, in registration order."""
        return self.succ_idx[self.succ_ptr[i]:self.succ_ptr[i + 1]]


class TaskGraph:
    """A static DAG of tasks spanning all nodes for one iteration.

    Every graph is a lowered recipe's instance
    (:func:`repro.casync.lower.instantiate`): ``tasks`` in recipe order
    (joins have none) and the recipe's shared :class:`SuccessorCSR`.

    ``bulk`` is the plan's bulk-synchronization decision (§3.2): a round
    running this graph gets a :class:`Coordinator` and batch-compressing
    engines exactly when it is set.

    Dispatch runs off the CSR, and every signal is state on the graph.
    The backward pass fires each ready ref through :meth:`make_ready`,
    and :meth:`complete` reports each finished task.  Either way one
    agenda entry at ``(now, NORMAL)`` releases the dependents in
    registration order; a completion's entry then runs the ``observers``
    and counts toward :attr:`finished`.  The graph *settles* one entry
    after it finished (:attr:`settled`, then ``on_settled``).  A join
    releases its dependents in the step its last dependency does, and
    only records the instant in :attr:`joined_at`.
    """

    def __init__(self, env: Environment, tasks: List[Task],
                 csr: SuccessorCSR, bulk: bool):
        self.env = env
        self.tasks = tasks
        self.csr = csr
        self.bulk = bulk
        #: ``observer(task)`` callables run at each completion, after the
        #: task's dependents are released (the fault ledger).
        self.observers: List[Callable[[Task], None]] = []
        #: Fire instant of each ready ref ``(node, gradient)``, by key;
        #: absent until :meth:`make_ready` fires it.
        self.ready_at: Dict[Tuple, float] = {}
        #: Release instant of each join row (by row), NaN until then.
        self.joined_at = array("d", [math.nan]) * len(csr)
        #: Set when every task has completed, or at the first failure,
        #: which :attr:`error` keeps.
        self.finished = False
        self.error: Optional[BaseException] = None
        #: Set by the entry :attr:`finished` pushes, which then calls each
        #: ``on_settled`` callable with the graph.
        self.settled = False
        self.on_settled: List[Callable[["TaskGraph"], None]] = []
        self._engines: Dict[int, "NodeEngine"] = {}
        self._pending: Optional[List[int]] = None
        self._remaining = 0

    def predecessors(self, task: Task) -> Tuple:
        """``task``'s distinct dependencies (tasks and ready-ref keys), in
        order, with each join replaced by its own, transitively."""
        return tuple(dict.fromkeys(self._deps(task.index)))

    def _deps(self, i: int) -> Iterator[Any]:
        csr = self.csr
        slot = csr.slot
        for j in csr.dep_rows[csr.dep_ptr[i]:csr.dep_ptr[i + 1]]:
            if j < 0:
                yield csr.ref_keys[-1 - j]
            elif slot[j] >= 0:
                yield self.tasks[slot[j]]
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
        self._engines = {e.node: e for e in engines}
        for engine in engines:
            engine.graph = self
            if engine.coordinator is not None:
                engine.coordinator.graph = self
        self._pending = self.csr.indegree.tolist()
        self._remaining = len(self.tasks)
        for i in self.csr.sources:
            self._start(i)
        if not self.tasks:
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

    def _start(self, i: int) -> None:
        """Dispatch row ``i``'s task, or release a join's dependents."""
        k = self.csr.slot[i]
        if k < 0:
            self.joined_at[i] = self.env.now
            self._release(self.csr.successors(i))
            return
        task = self.tasks[k]
        # task.node is read at release time: the degradation controller
        # may have reassigned an undispatched task.
        engine = self._engines.get(task.node)
        if engine is None:
            raise ValueError(f"no engine for node {task.node}")
        engine.dispatch(task)

    def _release(self, dependents: array) -> None:
        """Count ``dependents`` down, starting each that reaches zero."""
        pending = self._pending
        for j in dependents:
            left = pending[j] - 1
            pending[j] = left
            if not left:
                self._start(j)

    def complete(self, task: Task,
                 error: Optional[BaseException] = None) -> None:
        """Complete ``task`` now, failed with ``error`` if given: one
        agenda entry at ``(now, NORMAL)``.  A second call raises
        :class:`SimulationError`."""
        if task.triggered:
            raise SimulationError(f"{task!r} has already been completed")
        task.triggered = True
        task.error = error
        self.env.call_later(0.0, self._on_complete, task)

    def _on_complete(self, task: Task) -> None:
        csr = self.csr
        i = task.index
        start, stop = csr.succ_ptr[i], csr.succ_ptr[i + 1]
        if start != stop:
            self._release(csr.succ_idx[start:stop])
        for observer in self.observers:
            observer(task)
        if self.finished:
            return
        if task.error is not None:
            self.error = task.error
            self.finished = True
            self.env.call_later(0.0, self._settle)
            return
        self._remaining -= 1
        if not self._remaining:
            self._finish()

    def _finish(self) -> None:
        """Mark every task complete, push the settle entry, and unbind
        the engines.

        The engines' and the coordinator's back-references are dead
        weight now, and the links that would put this graph in a
        reference cycle: dropping them frees a finished round's tasks by
        reference counting.
        """
        self.finished = True
        self.env.call_later(0.0, self._settle)
        for engine in self._engines.values():
            if engine.graph is self:
                engine.graph = None
            coordinator = engine.coordinator
            if coordinator is not None and coordinator.graph is self:
                coordinator.graph = None

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
                    task: Optional[Task] = None) -> None:
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
    ``task`` passes it: each attempt is counted on ``task.attempts``, and
    once the fault machinery has force-completed the task the loop stops
    with outcome ``"forced"``.

    Ends in ``done(outcome, final_dst)``, where outcome is ``"delivered"``
    (bytes arrived at final_dst), ``"local"`` (routing collapsed onto the
    sender: nothing crosses the wire; ``done`` runs before this returns),
    ``"forced"``, or ``"dead"`` (no membership / no degradation / no live
    node to fall back on -- the caller decides whether that aborts the
    round).
    """
    _RetryLoop(env, fabric, src, dst, nbytes, policy, done, membership,
               degradation, on_retry, task).route()


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
    task: Optional[Task]
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
        task, membership = self.task, self.membership
        if task is not None and task.triggered:
            self.done("forced", self.target)
        elif membership is not None and not membership.is_alive(self.target):
            self.exhausted()  # someone else already declared this peer dead
        else:
            if task is not None:
                task.attempts += 1
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


class Coordinator:
    """Global bulk-synchronization coordinator (§3.2).

    Collects small ``send`` tasks into per-link queues and flushes each
    link's queue as one batched transfer when it reaches
    ``size_threshold`` bytes or its oldest entry ages past ``timeout_s``
    -- "the size of each batch is decided based on a specified timeout or
    a size threshold, whichever is met first".

    Every flush issues from one URGENT agenda entry
    (:meth:`_flush_keys`), which sends each batch as one message: through
    :meth:`Fabric.issue` without a ``retry_policy``, through its own
    :func:`robust_transfer` with one.  The timeout check is a ticker of
    agenda entries (:meth:`_next_tick`).
    """

    def __init__(self, env: Environment, fabric: Fabric,
                 size_threshold: float = 4 * 1024 * 1024,
                 timeout_s: float = 0.0005,
                 retry_policy: Optional[RetryPolicy] = None,
                 membership: Optional[Membership] = None,
                 degradation: bool = True):
        if size_threshold <= 0:
            raise ValueError("size_threshold must be positive")
        if timeout_s <= 0:
            raise ValueError("timeout must be positive")
        self.env = env
        self.fabric = fabric
        self.retry_policy = retry_policy
        self.membership = membership
        self.degradation = degradation
        self.size_threshold = size_threshold
        self.timeout_s = timeout_s
        self._queues: Dict[Tuple[int, int], List[Tuple[Task, float]]] = {}
        #: Running byte total of each link queue, summed in arrival order.
        self._queue_bytes: Dict[Tuple[int, int], float] = {}
        #: The armed graph whose tasks this coordinator completes.
        self.graph: Optional[TaskGraph] = None
        self._ticker_running = False
        self.batches_flushed = 0
        self.tasks_batched = 0
        #: Failed flush attempts under a retry policy.
        self.retries = 0

    def submit(self, task: Task) -> None:
        key = (task.node, task.dst)
        self._queues.setdefault(key, []).append((task, self.env.now))
        total = self._queue_bytes.get(key, 0) + task.nbytes
        self._queue_bytes[key] = total
        if total >= self.size_threshold:
            self._flush_keys([key])
        elif not self._ticker_running:
            self._ticker_running = True
            self.env.call_later(0.0, self._next_tick, None, URGENT)

    def _drain(self, key: Tuple[int, int]
               ) -> Tuple[List[Task], float, object]:
        """Pop ``key``'s queue as one batch whose sends start now.

        Returns ``(tasks, nbytes, span)``; ``span`` is the batch's
        telemetry span, None without a collector.
        """
        queue = self._queues.pop(key)
        now = self.env.now
        tasks = []
        for task, _ in queue:
            task.started_at = now
            tasks.append(task)
        nbytes = self._queue_bytes.pop(key)
        self.batches_flushed += 1
        self.tasks_batched += len(tasks)
        tel = self.env.telemetry
        span = None
        if tel is not None:
            src, dst = key
            span = tel.begin(f"bulk:{src}->{dst}", category="coordinator",
                             track=f"node{src}/coordinator", at=now,
                             nbytes=nbytes, tasks=len(tasks),
                             task_ids=[t.id for t in tasks])
            tel.metrics.counter("coordinator.batches").inc()
            tel.metrics.counter("coordinator.tasks_batched").inc(len(tasks))
            tel.metrics.histogram("coordinator.batch_bytes").observe(nbytes)
        return tasks, nbytes, span

    def _count_retry(self) -> None:
        self.retries += 1

    def _flush_keys(self, keys: List[Tuple[int, int]]) -> None:
        """Flush link queues from one URGENT *issue* entry.

        Queues are drained here, but NIC reservation waits for the issue
        entry: reserving eagerly would jump ahead of a same-instant
        URGENT entry already in the agenda (an inline send's issue).
        Same-instant URGENT entries run back to back, so the keys of one
        tick share one issue entry without anything interleaving.
        """
        batches = [key + self._drain(key) for key in keys]
        self.env.call_later(0.0, self._issue_batches, batches, URGENT)

    def _issue_batches(self, batches: List[Tuple]) -> None:
        """Send each flushed batch as one message, in key order."""
        policy = self.retry_policy
        for batch in batches:
            src, dst, _, nbytes, span = batch
            if policy is None:
                self.fabric.issue(src, dst, nbytes, self._delivered, batch,
                                  span_parent=span)
            else:
                robust_transfer(self.env, self.fabric, src, dst, nbytes,
                                policy,
                                functools.partial(self._settle, batch),
                                self.membership, self.degradation,
                                on_retry=self._count_retry)

    def _delivered(self, batch: Tuple) -> None:
        self._settle(batch, "delivered")

    def _settle(self, batch: Tuple, outcome: str,
                _final_dst: Optional[int] = None) -> None:
        """Complete a flushed batch's tasks with its transfer's outcome."""
        src, dst, tasks, _, span = batch
        now = self.env.now
        tel = self.env.telemetry
        if tel is not None:
            tel.finish(span, now, outcome=outcome)
        for task in tasks:
            if task.triggered:
                continue
            task.finished_at = now
            if outcome == "dead":
                self.graph.complete(task, PeerDeadError(
                    src, dst, task.nbytes, self.retry_policy.max_attempts))
            else:
                task.dropped = outcome == "local"
                self.graph.complete(task)

    def _next_tick(self, _value: None = None) -> None:
        """Schedule the next tick while any queue waits, else retire."""
        if self._queues:
            self.env.call_later(self.timeout_s / 2, self._tick)
        else:
            self._ticker_running = False

    def _tick(self, _value: None) -> None:
        """Flush queues whose oldest entry exceeded the timeout."""
        now = self.env.now
        due = [key for key, queue in self._queues.items()
               if now - queue[0][1] >= self.timeout_s]
        if due:
            self._flush_keys(due)
        self._next_tick()


class _TaskQueue:
    """One executor's FIFO: ``take(task)`` runs in an URGENT hop; the
    executor calls :meth:`next` when done.  ``take``, the owning engine's
    bound method, is passed on every call: storing it would make a
    reference cycle that outlives the round.
    """

    __slots__ = ("env", "tasks", "idle")

    def __init__(self, env: Environment, take: Callable[[Task], None]):
        self.env = env
        self.tasks: Deque[Task] = deque()
        #: Nothing queued, taken or running: the next put takes at once.
        self.idle = False
        env.call_later(0.0, self.next, take, URGENT)

    def put(self, task: Task, take: Callable[[Task], None]) -> None:
        if self.idle:
            self.idle = False
            self.env.call_later(0.0, take, task, URGENT)
        else:
            self.tasks.append(task)

    def next(self, take: Callable[[Task], None]) -> None:
        """Take the next queued task in a hop, or go idle."""
        if self.tasks:
            self.env.call_later(0.0, take, self.tasks.popleft(), URGENT)
        else:
            self.idle = True


class NodeEngine:
    """Per-node task manager: Q_comp and Q_commu executors (Fig. 2).

    When the armed graph is ``bulk``, all simultaneously-ready computing
    tasks fuse into a single kernel launch, the §3.2 batch-compression
    optimization.  Sends go through the coordinator (bulk sends, when one
    is attached) or :meth:`_send_inline`, whose issue event hands the
    send to :meth:`Fabric.issue` directly or, under a ``retry_policy``,
    to :func:`robust_transfer`.

    The compression and CPU executors are callback state machines over
    a :class:`_TaskQueue` (``docs/SIM_CORE.md``): a construction-time
    URGENT hop, then per task a *take* hop at ``(now, URGENT)`` that
    forms the batch, or orphans the task if the engine halted meanwhile;
    compute work runs through :meth:`Gpu.run_kernel`, CPU work through
    one finish entry.
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
        self.orphans: List[Task] = []
        self.retries = 0
        self.q_comp = _TaskQueue(env, self._comp_take)
        self.q_cpu = _TaskQueue(env, self._cpu_take)
        self.compute_busy = 0.0
        self.cpu_busy = 0.0
        self.send_busy = 0.0

    def halt(self) -> List[Task]:
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
        for task in orphans:
            self.dispatch(task)

    def dispatch(self, task: Task) -> None:
        """Route a ready task to the right executor."""
        if task.triggered:
            return  # already force-completed by the fault machinery
        if self.halted:
            if (self.membership is not None
                    and not self.membership.is_alive(self.node)):
                # This node is declared dead: the degradation sweep already
                # ran, so late arrivals drop-complete to unblock dependents.
                task.dropped = True
                task.finished_at = self.env.now
                self.graph.complete(task)
            else:
                self.orphans.append(task)
            return
        if task.kind in COMPUTE_KINDS:
            self.q_comp.put(task, self._comp_take)
        elif task.kind == "cpu":
            self.q_cpu.put(task, self._cpu_take)
        elif task.bulk and self.coordinator is not None:  # a send
            self.coordinator.submit(task)
        else:
            self._send_inline(task)

    def _task_span(self, task: Task, at: float):
        """Open a telemetry span for one task (None when disabled)."""
        tel = self.env.telemetry
        if tel is None:
            return None
        return tel.begin(task.label or task.kind, category=task.kind,
                         track=f"node{self.node}/{task.kind}", at=at,
                         task=task.id, nbytes=task.nbytes)

    def _finish_task_span(self, span, **attrs) -> None:
        if span is not None:
            self.env.telemetry.finish(span, self.env.now, **attrs)

    def _send_inline(self, task: Task) -> None:
        """A send in two agenda entries (without retries):

        * an *issue* entry at ``(now, URGENT)`` opens the send's span and
          hands it to :meth:`Fabric.issue`, which reserves the NIC then,
          not at dispatch: a pending URGENT issue of an earlier flush or
          send must reserve first;
        * the fabric's delivery entry records the message and runs
          :meth:`_finish_send`.

        Under a ``retry_policy`` the issue entry starts
        :func:`robust_transfer` instead, and :meth:`_finish_robust`
        completes the task.  A collector only records, so a traced round
        steps the same entries as a bare one.
        """
        self.env.call_later(0.0, self._issue_send, task, URGENT)

    def _issue_send(self, task: Task) -> None:
        task.started_at = self.env.now
        span = self._task_span(task, task.started_at)
        if self.retry_policy is None:
            self.fabric.issue(task.node, task.dst, task.nbytes,
                              self._finish_send, (task, span),
                              span_parent=span)
            return
        done = functools.partial(self._finish_robust, task, span,
                                 task.attempts)
        robust_transfer(self.env, self.fabric, self.node, task.dst,
                        task.nbytes, self.retry_policy, done, self.membership,
                        self.degradation, on_retry=self._count_retry,
                        task=task)

    def _finish_send(self, token: Tuple[Task, object]) -> None:
        task, span = token
        now = self.env.now
        task.finished_at = now
        self.send_busy += now - task.started_at
        self._finish_task_span(span, dst=task.dst)
        if not task.triggered:
            self.graph.complete(task)

    def _finish_robust(self, task: Task, span, before: int, outcome: str,
                       final_dst: int) -> None:
        """Complete a send with its retry loop's outcome."""
        task.finished_at = self.env.now
        self.send_busy += task.finished_at - task.started_at
        self._finish_task_span(span, outcome=outcome, dst=final_dst,
                               attempts=task.attempts - before)
        if task.triggered:
            return  # force-completed while we were retrying
        if outcome == "dead":
            self.graph.complete(task, PeerDeadError(
                self.node, final_dst, task.nbytes, task.attempts - before))
        else:
            task.dropped = outcome == "local"
            self.graph.complete(task)

    def _count_retry(self) -> None:
        self.retries += 1

    def _cpu_take(self, task: Task) -> None:
        """Serial host-CPU worker (BytePS-style server aggregation)."""
        if self.halted:
            self.orphans.append(task)
            self.q_cpu.next(self._cpu_take)
            return
        task.started_at = self.env.now
        span = self._task_span(task, task.started_at)
        self.env.call_later(task.duration, self._cpu_finish, (task, span))

    def _cpu_finish(self, work: Tuple[Task, Any]) -> None:
        task, span = work
        task.finished_at = self.env.now
        self.cpu_busy += task.duration
        self._finish_task_span(span)
        if not task.triggered:
            self.graph.complete(task)
        self.q_cpu.next(self._cpu_take)

    def _comp_take(self, first: Task) -> None:
        """Launch the taken task, fused with queued ones on a bulk graph."""
        if self.halted:
            self.orphans.append(first)
            self.q_comp.next(self._comp_take)
            return
        batch = [first]
        if self.graph.bulk:
            queue = self.q_comp.tasks
            total = first.nbytes
            while total < self.BATCH_LIMIT_BYTES and queue:
                extra = queue.popleft()
                batch.append(extra)
                total += extra.nbytes
        if len(batch) == 1:
            duration = first.duration
        else:
            # One fused launch: pay a single launch overhead.  A left
            # fold, not ``sum``, which rounds differently from Python 3.12.
            work = 0.0
            for task in batch:
                work += task.duration - task.launch_overhead
            duration = work + max(t.launch_overhead for t in batch)
        start = self.env.now
        spans = []
        for task in batch:
            task.started_at = start
            span = self._task_span(task, start)
            if span is not None:
                spans.append(span)
                if len(batch) > 1:
                    span.attrs["fused"] = len(batch)
        # The fused kernel is a child of the first task's span, so the
        # flame view attributes GPU time to the work that launched it.
        self.gpu.run_kernel(duration, self._comp_finish,
                            (batch, start, spans), category="compression",
                            span_parent=spans[0] if spans else None)

    def _comp_finish(self, token: Tuple[List[Task], float, List]) -> None:
        batch, start, spans = token
        now = self.env.now
        self.compute_busy += now - start
        for span in spans:
            self._finish_task_span(span)
        for task in batch:
            task.finished_at = now
            if not task.triggered:
                self.graph.complete(task)
        self.q_comp.next(self._comp_take)


def run_graph(env: Environment, graph: TaskGraph,
              engines: List[NodeEngine]) -> float:
    """Arm and execute a task graph until it settles; returns the finish
    time, or raises the first task failure."""
    graph.arm(engines)
    while not graph.settled:
        env.step()
    if graph.error is not None:
        raise graph.error
    return env.now
