"""CaSync task system: primitives, dependency graph, per-node task manager.

This is the §3.1 architecture made executable.  Gradient synchronization is
decomposed into the five primitives -- encode, decode, merge, send, recv --
plus a couple of bookkeeping kinds.  A strategy builds a static
:class:`TaskGraph` for one training iteration (every message flow is known
up front), and each node's :class:`NodeEngine` then executes its tasks:

* computing tasks (encode/decode/merge/copy) queue into Q_comp and run on
  the GPU's communication stream, optionally *batch-compressed*: several
  small kernels ready at the same time fuse into one launch (§3.2);
* ``send`` tasks queue into Q_commu and either transfer directly over the
  fabric or go through the global bulk-sync :class:`Coordinator`, which
  batches small messages per link with a size/timeout policy (§3.2);
* ``recv`` is represented by cross-node dependencies: a task on the
  receiving node simply depends on the sender's ``send`` task, which
  completes when the bytes have arrived.

Order constraints are enforced exactly as in the paper: the dependency
graph drives asynchronous execution (Fig. 2 steps 1-3).  The graph's
edges are a static :class:`SuccessorCSR`; executors report a finished
task through :meth:`TaskGraph.complete`, whose one pooled carrier event
releases the task's dependents, so a round allocates no event,
dependency list or callback per task.
"""

from __future__ import annotations

import functools
import itertools
from array import array
from dataclasses import dataclass
from typing import (Any, Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple)

from ..faults.errors import PeerDeadError
from ..faults.membership import Membership
from ..faults.retry import RetryPolicy
from ..gpu import Gpu, GpuSpec
from ..net import Fabric
from ..sim import Environment, Event, NORMAL, SimulationError, Store, URGENT

__all__ = ["Task", "TaskGraph", "SuccessorCSR", "NodeEngine", "Coordinator",
           "run_graph", "robust_transfer", "COMPUTE_KINDS"]

#: Task kinds executed on the GPU communication stream.
COMPUTE_KINDS = ("encode", "decode", "merge", "copy")
#: Host-side work (BytePS-style CPU aggregation) runs on a per-node CPU
#: executor instead of the GPU stream.
_ALL_KINDS = COMPUTE_KINDS + ("cpu", "send", "notify")

_task_counter = itertools.count()


class Task:
    """One unit of work in the synchronization DAG.

    Completion is per-task state, not an event: :meth:`TaskGraph.complete`
    sets ``triggered`` (and ``error`` for a failed task) and schedules the
    pooled carrier that releases the task's dependents.
    """

    __slots__ = ("id", "index", "node", "kind", "label", "duration",
                 "launch_overhead", "nbytes", "out_nbytes", "dst", "bulk",
                 "triggered", "error", "started_at", "finished_at",
                 "dropped", "attempts")

    def __init__(self, node: int, kind: str, label: str = "",
                 duration: float = 0.0, launch_overhead: float = 0.0,
                 nbytes: float = 0.0, dst: Optional[int] = None,
                 bulk: bool = False, out_nbytes: Optional[float] = None,
                 index: int = -1):
        if kind not in _ALL_KINDS:
            raise ValueError(f"unknown task kind {kind!r}")
        if kind == "send" and dst is None:
            raise ValueError("send tasks need a destination node")
        self.id = next(_task_counter)
        #: Position in the owning graph's ``tasks`` (its CSR row).
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
        #: True once the completion is scheduled (``Event.triggered``).
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


class SuccessorCSR:
    """A static task DAG's edges as compressed sparse rows of C ints.

    Built once per graph shape (a lowered recipe caches it), so arming an
    iteration allocates nothing per task.  ``preds[i]`` is task ``i``'s
    dependency row: ``("t", j)`` names an earlier task, ``("r", *key)``
    an external event the graph resolves by ``key`` (a backward-pass
    ready event).  Each list below keeps registration order -- ascending
    dependent index, duplicate edges kept -- which is the order the
    dependents are released in:

    * task ``i``'s dependents: ``succ_idx[succ_ptr[i]:succ_ptr[i + 1]]``;
    * external key ``refs[r]``'s dependents:
      ``ref_idx[ref_ptr[r]:ref_ptr[r + 1]]`` (keys in first-use order);
    * ``indegree[i]`` counts every dependency entry of task ``i``;
      ``sources`` are the tasks without any;
    * ``producers`` are the tasks that materialize a buffer, the only
      rows buffer accounting walks.
    """

    __slots__ = ("preds", "indegree", "sources", "succ_ptr", "succ_idx",
                 "refs", "ref_ptr", "ref_idx", "producers")

    def __init__(self, preds: Sequence[Tuple[Tuple, ...]],
                 producers: Iterable[int]):
        # A counting sort keyed by the depended-on task: no per-row
        # containers, so building the CSR of a large recipe stays flat in
        # memory.  Filling in ascending dependent order keeps every row in
        # registration order.
        n = len(preds)
        counts = array("i", [0]) * (n + 1)
        by_ref: Dict[Tuple, List[int]] = {}
        for i, row in enumerate(preds):
            for dep in row:
                if dep[0] == "t":
                    counts[dep[1] + 1] += 1
                else:
                    by_ref.setdefault(dep[1:], []).append(i)
        ptr = array("i", itertools.accumulate(counts))
        fill = ptr[:-1]
        idx = array("i", [0]) * ptr[-1]
        for i, row in enumerate(preds):
            for dep in row:
                if dep[0] == "t":
                    j = dep[1]
                    idx[fill[j]] = i
                    fill[j] += 1
        self.preds = preds
        self.indegree = array("i", map(len, preds))
        self.sources = array("i", (i for i, row in enumerate(preds)
                                   if not row))
        self.succ_ptr, self.succ_idx = ptr, idx
        self.refs = list(by_ref)
        self.ref_ptr = array("i", itertools.accumulate(
            map(len, by_ref.values()), initial=0))
        self.ref_idx = array("i", itertools.chain.from_iterable(
            by_ref.values()))
        self.producers = array("i", producers)

    def successors(self, i: int) -> array:
        """Task ``i``'s dependents, in registration order."""
        return self.succ_idx[self.succ_ptr[i]:self.succ_ptr[i + 1]]


class TaskGraph:
    """A static DAG of tasks spanning all nodes for one iteration.

    Either instantiated from a lowered recipe (``tasks`` plus the
    recipe's cached :class:`SuccessorCSR` and the ``ready`` events its
    external keys name) or built by hand with :meth:`add`, which derives
    the same CSR when the graph is first armed.

    ``bulk`` is the plan's bulk-synchronization decision (§3.2): a round
    running this graph gets a :class:`Coordinator` and batch-compressing
    engines exactly when it is set.  Hand-built graphs default to off.

    Dispatch runs off the CSR.  :meth:`complete` schedules one pooled
    carrier per task at ``(now, NORMAL)``; its callback releases the
    task's dependents in registration order, runs the ``observers``, and
    counts toward the graph-level :attr:`done` event.  Only external
    (ready) events carry a callback of the graph's.
    """

    def __init__(self, env: Environment, tasks: Optional[List[Task]] = None,
                 csr: Optional[SuccessorCSR] = None,
                 ready: Optional[Dict[Tuple, Event]] = None,
                 bulk: bool = False):
        self.env = env
        self.tasks: List[Task] = [] if tasks is None else tasks
        self.bulk = bulk
        self._csr = csr
        #: Hand-built graphs' dependency rows (None on recipe graphs).
        self._rows: Optional[List[Tuple[Tuple, ...]]] = (
            [] if csr is None else None)
        self._ready: Dict[Tuple, Event] = {} if ready is None else ready
        #: ``observer(task)`` callables run at each completion, after the
        #: task's dependents are released (the fault ledger).
        self.observers: List[Callable[[Task], None]] = []
        #: Fires when every task completed; fails on the first error.
        self.done: Optional[Event] = None
        self._engines: Dict[int, "NodeEngine"] = {}
        self._pending: List[int] = []
        self._remaining = 0

    def add(self, task: Task, deps: Iterable = ()) -> Task:
        """Add ``task`` depending on prior tasks and/or raw events."""
        if self._rows is None:
            raise ValueError("cannot add tasks to a recipe-instantiated graph")
        row = []
        for dep in deps:
            if isinstance(dep, Task):
                if not (0 <= dep.index < len(self.tasks)
                        and self.tasks[dep.index] is dep):
                    raise ValueError(
                        f"dependency {dep!r} of {task!r} is not in this graph")
                row.append(("t", dep.index))
            else:
                self._ready[(dep,)] = dep
                row.append(("r", dep))
        task.index = len(self.tasks)
        self.tasks.append(task)
        self._rows.append(tuple(row))
        self._csr = None
        return task

    @property
    def csr(self) -> SuccessorCSR:
        """The graph's successor CSR (derived once for hand-built graphs)."""
        if self._csr is None:
            self._csr = SuccessorCSR(
                self._rows, [i for i, task in enumerate(self.tasks)
                             if task.out_nbytes is not None
                             and task.out_nbytes > 0])
        return self._csr

    def predecessors(self, task: Task) -> Tuple:
        """``task``'s dependencies (tasks and raw events), in order."""
        tasks, ready = self.tasks, self._ready
        return tuple(tasks[dep[1]] if dep[0] == "t" else ready[dep[1:]]
                     for dep in self.csr.preds[task.index])

    def arm(self, engines: List["NodeEngine"]) -> Event:
        """Bind the engines, release source tasks, return :attr:`done`.

        Pending counts start from the CSR's indegrees; a ready event that
        already fired counts as satisfied, and every other one gets one
        callback releasing its dependents.  Sources dispatch in task order.
        """
        tel = self.env.telemetry
        if tel is not None:
            # Capture the DAG so exported timelines can be cross-checked
            # against the dependencies that produced them.
            tel.register_task_graph(self)
        csr = self.csr
        self._engines = {e.node: e for e in engines}
        for engine in engines:
            engine.graph = self
            if engine.coordinator is not None:
                engine.coordinator.graph = self
        pending = self._pending = csr.indegree.tolist()
        self._remaining = len(self.tasks)
        self.done = done = self.env.event()
        released: List[int] = []
        waiting = []
        ref_ptr, ref_idx = csr.ref_ptr, csr.ref_idx
        for r, key in enumerate(csr.refs):
            event = self._ready[key]
            dependents = ref_idx[ref_ptr[r]:ref_ptr[r + 1]]
            if event._processed:
                for j in dependents:
                    pending[j] -= 1
                    if not pending[j]:
                        released.append(j)
            else:
                waiting.append((event, dependents))
        sources = (sorted(itertools.chain(csr.sources, released))
                   if released else csr.sources)
        tasks = self.tasks
        for i in sources:
            self._dispatch(tasks[i])
        # No event fires while arm() runs, so attaching the ready-event
        # callbacks after the sources dispatched is safe.
        for event, dependents in waiting:
            event.callbacks.append(self._fanout_callback(dependents))
        if not tasks:
            self._finish()
        return done

    def _fanout_callback(self, dependents: array):
        """A ready event's callback, releasing all its dependents."""
        def fanout(_event):
            self._release(dependents)
        return fanout

    def _dispatch(self, task: Task) -> None:
        # task.node is read at release time: the degradation controller
        # may have reassigned an undispatched task.
        engine = self._engines.get(task.node)
        if engine is None:
            raise ValueError(f"no engine for node {task.node}")
        engine.dispatch(task)

    def _release(self, dependents: array) -> None:
        pending, tasks = self._pending, self.tasks
        for j in dependents:
            left = pending[j] - 1
            pending[j] = left
            if not left:
                self._dispatch(tasks[j])

    def complete(self, task: Task,
                 error: Optional[BaseException] = None) -> None:
        """Complete ``task`` now, failed with ``error`` if given.

        One pooled carrier per completion, scheduled at ``(now, NORMAL)``
        as ``Event.succeed``/``fail`` schedules an event, so a completion
        takes one agenda entry in the same (time, priority, seq) order.
        Completing a task twice raises :class:`SimulationError`, as a
        second ``Event.succeed`` does.
        """
        if task.triggered:
            raise SimulationError(f"{task!r} has already been completed")
        task.triggered = True
        task.error = error
        env = self.env
        carrier = env._acquire_carrier(True, task)
        carrier.callbacks.append(self._on_complete)
        env.schedule(carrier)

    def _on_complete(self, event: Event) -> None:
        task = event._value
        csr = self._csr
        i = task.index
        start, stop = csr.succ_ptr[i], csr.succ_ptr[i + 1]
        if start != stop:
            self._release(csr.succ_idx[start:stop])
        for observer in self.observers:
            observer(task)
        done = self.done
        if done._scheduled:
            return
        if task.error is not None:
            done.fail(task.error)
            return
        self._remaining -= 1
        if not self._remaining:
            self._finish()

    def _finish(self) -> None:
        """Fire :attr:`done` and unbind the engines.

        Nothing completes a task after the last one did, and the engines'
        back-references are the only links from the (cyclic) simulation
        state to this graph: dropping them lets a finished round's tasks
        free by reference counting instead of waiting for a full
        collection.
        """
        self.done.succeed()
        for engine in self._engines.values():
            if engine.graph is self:
                engine.graph = None
            coordinator = engine.coordinator
            if coordinator is not None and coordinator.graph is self:
                coordinator.graph = None


def robust_transfer(env: Environment, fabric: Fabric, src: int, dst: int,
                    nbytes: float, policy: RetryPolicy,
                    done: Callable[[str, int], None],
                    membership: Optional[Membership] = None,
                    degradation: bool = True,
                    on_retry: Optional[Callable[[], None]] = None,
                    task: Optional[Task] = None) -> None:
    """Move ``nbytes`` src->dst with timeout/backoff/retries.

    The one retry loop: engine sends and coordinator flushes both run on
    it, a callback state machine over :meth:`Fabric.issue` that starts no
    process.  The robustness contract every fault-tolerant sender shares:

    * an attempt is one ``issue`` (from a pooled URGENT carrier) plus one
      timeout carrier scaled from the uncontended transfer time to its
      current target (:meth:`Fabric.pair_transfer_time`; a re-routed
      attempt is timed on the substitute's links), and whichever settles
      first cancels the other: a timeout gives the attempt up
      (:meth:`Fabric.abandon`; under faults its bytes log as dropped);
    * a failed attempt -- dropped (``TransferError``) or timed out --
      is retried after an exponential backoff carrier;
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
    ``"forced"``, or ``"dead"`` (no membership / no degradation to fall
    back on -- the caller decides whether that aborts the round).
    """
    _RetryLoop(env, fabric, src, dst, nbytes, policy, done, membership,
               degradation, on_retry, task).route()


@dataclass(eq=False)
class _RetryLoop:
    """The state of one :func:`robust_transfer` call.

    An object, not closures calling each other: those would form a
    reference cycle per message for the garbage collector, while this
    holds its pending attempt and timer only until they settle and is
    then freed by reference counting.
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
    timer: Optional[Event] = None

    def route(self) -> None:
        membership = self.membership
        self.target = (membership.route(self.dst)
                       if membership is not None else self.dst)
        self.attempt = 0
        if self.target == self.src:
            self.done("local", self.src)
        else:
            self.decide()

    def decide(self, _event: Optional[Event] = None) -> None:
        task, membership = self.task, self.membership
        if task is not None and task.triggered:
            self.done("forced", self.target)
        elif membership is not None and not membership.is_alive(self.target):
            self.exhausted()  # someone else already declared this peer dead
        else:
            if task is not None:
                task.attempts += 1
            self._after(0.0, self.issue, URGENT)

    def issue(self, _event: Event) -> None:
        src, dst, nbytes = self.src, self.target, self.nbytes
        self.xfer = self.fabric.issue(src, dst, nbytes, self.delivered, None,
                                      on_fail=self.failed)
        expected = self.fabric.pair_transfer_time(src, dst, nbytes)
        self.timer = self._after(
            self.policy.attempt_timeout(expected, self.attempt),
            self.timed_out)

    def delivered(self, _token: object) -> None:
        self.env.cancel(self.timer)
        self.xfer = self.timer = None
        self.done("delivered", self.target)

    def timed_out(self, _event: Event) -> None:
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
            self._after(self.policy.backoff(self.attempt), self.decide)
        else:
            self.exhausted()

    def exhausted(self) -> None:
        if self.membership is not None:
            self.membership.declare_dead(self.target)
            if self.degradation:
                self.route()  # membership.route now yields the substitute
                return
        self.done("dead", self.target)

    def _after(self, delay: float, callback: Callable[[Event], None],
               priority: int = NORMAL) -> Event:
        """Run ``callback`` in a pooled carrier ``delay`` from now."""
        carrier = self.env._acquire_carrier(True, None)
        carrier.callbacks.append(callback)
        self.env.schedule(carrier, delay=delay, priority=priority)
        return carrier


class Coordinator:
    """Global bulk-synchronization coordinator (§3.2).

    Collects small ``send`` tasks into per-link queues and flushes each
    link's queue as one batched transfer when it reaches
    ``size_threshold`` bytes or its oldest entry ages past ``timeout_s``
    -- "the size of each batch is decided based on a specified timeout or
    a size threshold, whichever is met first".

    Every flush issues from one pooled URGENT carrier
    (:meth:`_flush_keys`): without a ``retry_policy`` its batches move in
    one vectorized :meth:`Fabric.bulk_transfer`, with one each batch runs
    its own :func:`robust_transfer`.  A telemetry collector only records.
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
            self.env.process(self._ticker(), name="coordinator-ticker")

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
        """Flush link queues from one pooled URGENT *issue* event.

        Queues are drained here, but NIC reservation waits for the issue
        event to fire, as a flush process's initializer would: reserving
        eagerly would jump ahead of any same-instant URGENT event already
        in the agenda (an inline send's issue event), reordering
        reservations.  Consecutive same-instant URGENT events run back to
        back, so several keys flushed in one ticker tick can share one
        issue event without anything interleaving.
        """
        batches = [key + self._drain(key) for key in keys]
        env = self.env
        issue = env._acquire_carrier(True, batches)
        issue.callbacks.append(self._issue_batches)
        env.schedule(issue, priority=URGENT)

    def _issue_batches(self, event: Event) -> None:
        batches = event._value
        policy = self.retry_policy
        if policy is None:
            self.fabric.bulk_transfer(
                [(src, dst, nbytes) for src, dst, _, nbytes, _ in batches],
                handler=lambda index: self._settle(batches[index],
                                                   "delivered"),
                span_parents=[batch[4] for batch in batches])
            return
        for batch in batches:
            robust_transfer(self.env, self.fabric, batch[0], batch[1],
                            batch[3], policy,
                            functools.partial(self._settle, batch),
                            self.membership, self.degradation,
                            on_retry=self._count_retry)

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

    def _ticker(self):
        """Flush queues whose oldest entry exceeded the timeout."""
        while self._queues:
            yield self.env.timeout(self.timeout_s / 2)
            now = self.env.now
            due = [key for key, queue in self._queues.items()
                   if now - queue[0][1] >= self.timeout_s]
            if due:
                self._flush_keys(due)
        self._ticker_running = False


class NodeEngine:
    """Per-node task manager: Q_comp and Q_commu executors (Fig. 2).

    When the armed graph is ``bulk``, all simultaneously-ready computing
    tasks fuse into a single kernel launch, the §3.2 batch-compression
    optimization.  Sends go through the coordinator (bulk sends, when one
    is attached) or :meth:`_send_inline`, whose issue event hands the
    send to :meth:`Fabric.issue` directly or, under a ``retry_policy``,
    to :func:`robust_transfer`.
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
        self.q_comp: Store = Store(env)
        self.q_cpu: Store = Store(env)
        self.compute_busy = 0.0
        self.cpu_busy = 0.0
        self.send_busy = 0.0
        env.process(self._comp_executor(), name=f"comp-exec@{node}")
        env.process(self._cpu_executor(), name=f"cpu-exec@{node}")

    def halt(self) -> List[Task]:
        """Fail-stop this engine (ground-truth crash).

        Queued tasks are stranded into :attr:`orphans` -- deliberately NOT
        completed here: survivors must not observe the crash before their
        failure detector declares it.  Returns the newly stranded tasks.
        """
        self.halted = True
        stranded = []
        for queue in (self.q_comp, self.q_cpu):
            while True:
                task = queue.try_get()
                if task is None:
                    break
                stranded.append(task)
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
            self.q_comp.put(task)
        elif task.kind == "cpu":
            self.q_cpu.put(task)
        elif task.kind == "send":
            if task.bulk and self.coordinator is not None:
                self.coordinator.submit(task)
            else:
                self._send_inline(task)
        elif task.kind == "notify":
            task.finished_at = self.env.now
            self.graph.complete(task)
        else:  # pragma: no cover - guarded by Task.__init__
            raise ValueError(f"cannot dispatch {task!r}")

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
        """A send in pooled events, with no process.

        A send process would cost an initializer event, a ``Timeout``,
        the process-completion event, and two generator resumes.  Without
        retries the same work is two pooled carrier events:

        * an *issue* event at ``(now, URGENT)``, standing in for the
          process initializer.  It opens the send's telemetry span and
          hands the send to :meth:`Fabric.issue`, which reserves the NIC
          then, NOT here at dispatch time: a pending URGENT issue event
          of an earlier flush or send must reserve first, exactly as a
          send process's initializer would let it.
        * the fabric's delivery carrier at the delivery instant, which
          records the message (and closes its transfer span) and runs
          :meth:`_finish_send`, the completion bookkeeping.

        Under a ``retry_policy`` the issue event starts
        :func:`robust_transfer` instead (more pooled carriers), and
        :meth:`_finish_robust` completes the task.

        An attached collector records the same spans and metrics a send
        process would and schedules nothing, so a traced round steps the
        same events as a bare one.
        """
        env = self.env
        issue = env._acquire_carrier(True, task)
        issue.callbacks.append(self._issue_send)
        env.schedule(issue, priority=URGENT)

    def _issue_send(self, event: Event) -> None:
        task = event._value
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

    def _cpu_executor(self):
        """Serial host-CPU worker (BytePS-style server aggregation)."""
        while True:
            task = yield self.q_cpu.get()
            if self.halted:
                self.orphans.append(task)
                continue
            task.started_at = self.env.now
            span = self._task_span(task, task.started_at)
            yield self.env.timeout(task.duration)
            task.finished_at = self.env.now
            self.cpu_busy += task.duration
            self._finish_task_span(span)
            if not task.triggered:
                self.graph.complete(task)

    def _comp_executor(self):
        while True:
            first = yield self.q_comp.get()
            if self.halted:
                self.orphans.append(first)
                continue
            batch = [first]
            if self.graph.bulk:
                total = first.nbytes
                while total < self.BATCH_LIMIT_BYTES:
                    extra = self.q_comp.try_get()
                    if extra is None:
                        break
                    batch.append(extra)
                    total += extra.nbytes
            if len(batch) == 1:
                duration = first.duration
            else:
                # One fused launch: pay a single launch overhead.
                duration = (sum(t.duration - t.launch_overhead for t in batch)
                            + max(t.launch_overhead for t in batch))
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
            yield from self.gpu.run_kernel(
                duration, category="compression",
                span_parent=spans[0] if spans else None)
            now = self.env.now
            self.compute_busy += now - start
            for span in spans:
                self.env.telemetry.finish(span, now)
            for task in batch:
                task.finished_at = now
                if not task.triggered:
                    self.graph.complete(task)


def run_graph(env: Environment, graph: TaskGraph,
              engines: List[NodeEngine]) -> float:
    """Arm and execute a task graph to completion; returns the finish time."""
    done = graph.arm(engines)

    def waiter():
        yield done
        return env.now

    return env.run_until_complete(env.process(waiter(), name="graph-waiter"))
