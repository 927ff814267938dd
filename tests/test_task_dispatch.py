"""CSR dispatch: task graphs run off their successor CSR.

Every signal of a round is graph state plus one agenda entry: a task's
completion (:meth:`TaskGraph.complete`), a gradient's ready ref
(:meth:`TaskGraph.make_ready`) and the graph settling; a finished
batch's completions share one (:meth:`TaskGraph.complete_many`).  These
tests pin the allocation profile, the one-agenda-entry-per-signal
contract, the per-task order of batch completions, and the CSR's
release order.
"""

import collections
import contextlib
from array import array
import gc
import math
import sys
import weakref

import numpy as np
import pytest

import repro.sim
import repro.training.loop
from repro.algorithms import OneBit
from repro.analysis.plancheck import golden_cases, golden_model
from repro.casync import Coordinator, NodeEngine, run_graph
from repro.casync.passes import PassContext, build_plan
from repro.casync.tasks import SuccessorCSR, TaskGraph, _TaskQueue
from repro.cluster import ec2_v100_cluster
from repro.faults import (
    DeadlineExceeded,
    FaultSchedule,
    LinkPartition,
    LinkRestore,
    NodeCrash,
    NodeRestart,
    RetryPolicy,
    random_schedule,
)
from repro.gpu import Gpu, V100
from repro.models import GradientSpec, ModelSpec
from repro.net import Fabric, NetworkSpec
from repro.sim import NORMAL, URGENT, Environment, SimulationError
from repro.strategies import CaSyncPS, CaSyncRing, get_strategy
from repro.strategies.base import SyncContext
from repro.telemetry import telemetry_session
from repro.training import simulate_iteration
from repro.training.trace import trace_hash, trace_iteration
from tests.taskgraph_rows import build, join, row
from tests.test_faults import small_model as fault_model

KB = 1024
MB = 1024 * 1024


def small_model() -> ModelSpec:
    sizes = (8 * MB, 2 * MB, 900 * KB, 64 * KB, 16 * KB)
    grads = tuple(GradientSpec(f"disp.g{i}", s) for i, s in enumerate(sizes))
    return ModelSpec(name="dispatch-tiny", gradients=grads, batch_size=8,
                     batch_unit="images", v100_iteration_s=0.012)


def _world(num_nodes):
    env = Environment()
    fabric = Fabric(env, num_nodes, NetworkSpec(bandwidth_gbps=100))
    engines = [NodeEngine(env, i, Gpu(env, V100, i), fabric)
               for i in range(num_nodes)]
    return env, engines


def test_instantiate_and_arm_allocate_per_ready_ref_not_per_task():
    """Ready state is one fire instant per ready ref, recorded when the
    ref fires; arming records none."""
    model = small_model()
    cluster = ec2_v100_cluster(4)
    env, engines = _world(cluster.num_nodes)
    ctx = SyncContext(env=env, cluster=cluster, algorithm=OneBit())
    graph = get_strategy("casync-ps").build(ctx, model)

    csr = graph.csr
    assert len(csr.refs) == cluster.num_nodes * len(model.gradients)
    assert graph.num_tasks > 10 * len(csr.refs)
    graph.arm(engines)
    assert graph.ready_at == {}
    for node, gradient in csr.refs:
        graph.make_ready(node, gradient)
    assert graph.ready_at == dict.fromkeys(csr.refs, 0.0)
    while not graph.settled:
        env.step()
    assert graph.finished and graph.error is None
    assert all(graph.triggered) and not graph.errors


def _golden_round(traced):
    model = golden_model()
    cluster = ec2_v100_cluster(4)
    algo = OneBit()
    plan = build_plan(get_strategy("casync-ps"),
                      PassContext(num_nodes=4, cluster=cluster,
                                  algorithm=algo), model)
    barriers = sum(op.kind == "barrier" for op in plan.ops)
    assert barriers == 272
    session = telemetry_session() if traced else contextlib.nullcontext()
    with session:
        trace = trace_iteration(model, cluster, get_strategy("casync-ps"),
                                algorithm=algo)
    assert trace_hash(trace).startswith("88c4e59099cd")
    # 1,380 - barriers before batches shared an entry.
    return 454, 454


def _faulted_round(make_strategy, schedule, steps, **limits):
    """A round of ``tests.test_faults``' small model on 3 nodes under
    ``schedule``, as a callable returning its pinned step counts
    ``steps``, before and since a send issued in its releasing entry."""
    def run():
        trace_iteration(fault_model(), ec2_v100_cluster(3), make_strategy(),
                        algorithm=OneBit(), fault_schedule=schedule,
                        retry_policy=RetryPolicy.aggressive(), **limits)
        return steps
    return run


def _deadline_exceeded_round():
    run = _faulted_round(lambda: CaSyncPS(bulk=False, selective=False),
                         FaultSchedule.of(NodeCrash(at=1e-4, node=1)),
                         (59, 56), sync_deadline_s=2e-3,
                         heartbeat_timeout_s=10)
    with pytest.raises(DeadlineExceeded) as excinfo:
        run()
    assert excinfo.value.at == pytest.approx(2e-3)
    return 59, 56


#: Rounds whose ``Environment.step`` count is pinned, by test id.
STEP_PINNED_ROUNDS = {
    "bare": lambda: _golden_round(traced=False),
    "telemetry": lambda: _golden_round(traced=True),
    "ps-seed11": _faulted_round(
        lambda: CaSyncPS(bulk=False, selective=False),
        random_schedule(seed=11, num_nodes=3, horizon=2e-3), (111, 106),
        sync_deadline_s=0.5),
    "ps-partition": _faulted_round(
        lambda: CaSyncPS(bulk=False, selective=False),
        FaultSchedule.of(LinkPartition(at=1e-4, src=0, dst=1),
                         LinkRestore(at=3e-3, src=0, dst=1)), (122, 117),
        sync_deadline_s=0.5),
    "ring-crash-restart": _faulted_round(
        lambda: CaSyncRing(bulk=False, selective=False),
        FaultSchedule.of(NodeCrash(at=1e-4, node=2),
                         NodeRestart(at=2e-3, node=2)), (117, 111),
        sync_deadline_s=0.5),
    "ps-deadline-exceeded": _deadline_exceeded_round,
}


@pytest.mark.parametrize("case", list(STEP_PINNED_ROUNDS))
def test_one_agenda_entry_per_completion(case):
    """The Environment.step count of one golden case, pinned from the
    design that gave every task its own completion Event: a completion
    takes one agenda entry, and a batch's completions share one.  An
    attached collector only records, so a traced round steps the same
    events.

    1,393 steps until the coordinator's ticker became agenda callbacks:
    a retiring ticker process also stepped its completion event, and
    this round retires its ticker 5 times.

    1,388 steps until the last generator processes became callbacks.
    The 8 entries that went pushed no work:
    - the 4 compute passes' completion events;
    - the graph waiter's initializer (it only attached to ``done``) and
      its completion event;
    - the drain's initializer and the ``AllOf`` firing it waited on.
    Every other entry a process pushed is still one entry at the same
    (time, priority), pushed at the same point.

    1,380 steps until barriers became CSR joins: each barrier was a
    ``notify`` task whose completion took one entry, and a join takes
    none, so the count dropped by exactly the plan's barrier count.

    1,108 steps until a fused Q_comp launch and a delivered coordinator
    batch completed their tasks through ``complete_many``: the batch now
    takes one entry unless a same-instant URGENT entry, pushed by one
    of its completions, splits it, and each split costs one more entry.
    Their plans are not bulk, so the faulted rounds below fuse no
    launch, batch no send and did not move.

    The faulted rounds pin the retry loop, the link waits of a partition
    and of a crashed destination (4 each), the heartbeat detector and
    the deadline the same way; their counts were taken from the design
    in which ready signals, the graph's ``done``, the deadline's verdict
    and link waits were ``Event`` objects, each firing through one
    entry.

    555 steps (137, 149, 141 and 72 for the faulted rounds) until a
    kernel's grant joined its request: every kernel, a fused Q_comp
    launch or a compute-pass segment, took a grant hop at ``(now,
    URGENT)`` besides its finish entry, and now starts in the entry that
    requests it.  Each count fell by exactly its round's launched-kernel
    count (101; 26, 27, 24 and 13).

    454 steps (111, 122, 117 and 59 for the faulted rounds) until a send
    issued in the entry that releases it, when no URGENT entry waits at
    that instant: every inline send took an issue hop at ``(now,
    URGENT)``.  The golden round sends through the coordinator and did
    not move.  Each faulted count fell by its round's in-place issues
    plus the batch yields that only an issue hop forced, which the test
    checks against a run with the hop on every send.  These rounds run
    without local aggregation, so the aggregation timers, which lost
    their URGENT hop at the same time, saved none here."""
    (before, pinned), census = _census(STEP_PINNED_ROUNDS[case])
    assert census["steps"] == pinned
    _, hops = _census(STEP_PINNED_ROUNDS[case], send_inline=lambda self, k: (
        self.env.call_later(0.0, self._issue_send, k, URGENT)))
    assert hops["steps"] == before
    assert hops["issues"] == hops["issue entries"]
    assert census["aggregations"] == hops["aggregations"] == 0
    in_place = census["issues"] - census["issue entries"]
    assert before - pinned == in_place + hops["yields"] - census["yields"]


def _census(run, send_inline=None):
    """Run one of :data:`STEP_PINNED_ROUNDS`; returns its pinned step
    counts and a count of its steps, its sends issued (and how many from
    an entry of their own), its batch yields and its aggregation timers.
    ``send_inline`` replaces :meth:`NodeEngine._send_inline`."""
    counts = collections.Counter()
    step, issue = Environment.step, NodeEngine._issue_send
    yield_front = Environment.yield_front
    finish_agg = repro.training.loop._finish_local_agg

    def counting_step(self):
        counts["steps"] += 1
        step(self)

    def counting_issue(self, k):
        counts["issues"] += 1
        # An issue hop's callback is called by the step itself.
        counts["issue entries"] += sys._getframe(1).f_code is step.__code__
        issue(self, k)

    def counting_yield(self, callback, value):
        yielded = yield_front(self, callback, value)
        counts["yields"] += yielded
        return yielded

    def counting_agg(ref):
        counts["aggregations"] += 1
        finish_agg(ref)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Environment, "step", counting_step)
        mp.setattr(Environment, "yield_front", counting_yield)
        mp.setattr(NodeEngine, "_issue_send", counting_issue)
        mp.setattr(repro.training.loop, "_finish_local_agg", counting_agg)
        if send_inline is not None:
            mp.setattr(NodeEngine, "_send_inline", send_inline)
        pinned = run()
    return pinned, counts


def test_completing_a_task_twice_raises():
    env, engines = _world(1)
    graph = build(env, [row(0, "encode", "a", duration=0.5)])
    run_graph(env, graph, engines)
    assert graph.triggered[0]
    with pytest.raises(SimulationError, match="already been completed"):
        graph.complete(0)


def test_completing_a_completed_task_in_a_batch_raises():
    env, engines = _world(1)
    graph = build(env, [row(0, "encode", "a", duration=0.5),
                        row(0, "encode", "b", duration=0.5)])
    graph.arm(engines)
    graph.complete(0)
    with pytest.raises(SimulationError, match="already been completed"):
        graph.complete_many([1, 0])
    with pytest.raises(SimulationError, match="already been completed"):
        graph.complete_many([1])


def _per_task(graph, batch):
    """``TaskGraph.complete_many`` as the design before it: one
    ``complete`` per task, back to back."""
    for k in batch:
        graph.complete(k)


#: The golden cases whose plan is bulk: fused Q_comp launches and
#: coordinator batches complete their tasks through ``complete_many``.
BULK_CASES = {case.name: case for case in golden_cases()
              if getattr(case.inputs()[0], "bulk", False)}


def _completion_order(case, per_task):
    """Each completion of a golden round as ``(k, now)``, in the order
    the observers saw them, and the sizes of the batches passed to
    ``complete_many``."""
    seen, sizes = [], []
    arm, many = TaskGraph.arm, TaskGraph.complete_many

    def observed_arm(graph, engines):
        assert graph.bulk
        graph.observers.append(lambda g, k: seen.append((k, g.env.now)))
        arm(graph, engines)

    def spied_many(graph, batch):
        sizes.append(len(batch))
        (_per_task if per_task else many)(graph, batch)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(TaskGraph, "arm", observed_arm)
        mp.setattr(TaskGraph, "complete_many", spied_many)
        strategy, algorithm = case.inputs()
        trace_iteration(golden_model(), ec2_v100_cluster(4), strategy,
                        algorithm=algorithm)
    return seen, sizes


@pytest.mark.parametrize("case", sorted(BULK_CASES))
def test_batch_completions_keep_the_per_task_order(case):
    """A batch completed from one entry releases, observes and finishes
    its tasks in exactly the order and at the instants one entry per
    task did, on every bulk golden case."""
    assert len(BULK_CASES) == 10
    shipped, sizes = _completion_order(BULK_CASES[case], per_task=False)
    oracle, oracle_sizes = _completion_order(BULK_CASES[case], per_task=True)
    assert sizes == oracle_sizes
    # A ring plan of this model fuses no launch and batches no send.
    assert (max(sizes, default=0) > 1) == ("ring" not in case)
    assert len(shipped) == len(set(shipped))
    assert shipped == oracle


def _wake_round(per_task):
    """One node, bulk: ``a`` and ``b`` fuse into one launch, and ``a``'s
    completion wakes the idle Q_comp for ``c`` mid-batch.  Returns the
    start instants and how many times the batch yielded."""
    env, engines = _world(1)
    graph = build(env, [row(0, "encode", "a", duration=1.0),
                        row(0, "encode", "b", duration=1.0),
                        row(0, "decode", "c", duration=1.0, deps=[0]),
                        row(0, "decode", "d", duration=1.0, deps=[1])],
                  bulk=True)
    yields = [0]
    yield_front = Environment.yield_front

    def counted(self, callback, value):
        queued = yield_front(self, callback, value)
        yields[0] += queued
        return queued

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Environment, "yield_front", counted)
        if per_task:
            mp.setattr(TaskGraph, "complete_many", _per_task)
        run_graph(env, graph, engines)
    return list(graph.started_at), yields[0]


def test_a_batch_yields_to_the_take_hop_its_completion_pushed():
    """``c``'s take hop must run before ``b`` completes, or ``d`` would
    already wait in Q_comp and fuse with ``c``: launches ``[a, b]``,
    ``[c]``, ``[d]``, as with one completion entry per task."""
    started, yields = _wake_round(per_task=False)
    assert (started, yields) == ([0.0, 0.0, 2.0, 3.0], 1)
    assert _wake_round(per_task=True) == (started, 0)


def test_release_loop_runs_once_per_entry_and_not_for_sink_joins():
    """The frame budget of the release path on a bulk golden round: the
    release loop (``TaskGraph._release``) is entered at most once per
    completion entry, ready-ref entry, ``arm`` and
    ``NodeEngine.dispatch``.  A batch's tasks release their dependents
    inside their entry's one loop, and a join without dependents is
    stamped in ``joined_at`` without a call of its own."""
    calls = collections.Counter()
    depth = [0]
    graphs = []

    def counted(name, method):
        def wrapper(self, *args):
            calls[name] += 1
            if name == "_release":
                calls["nested"] += depth[0] > 0
                depth[0] += 1
                try:
                    return method(self, *args)
                finally:
                    depth[0] -= 1
            if name == "arm":
                graphs.append(self)
            return method(self, *args)
        return wrapper

    with pytest.MonkeyPatch.context() as mp:
        for cls, name in ((TaskGraph, "_release"), (TaskGraph, "_on_complete"),
                          (TaskGraph, "_on_ready"), (TaskGraph, "arm"),
                          (NodeEngine, "dispatch")):
            mp.setattr(cls, name, counted(name, getattr(cls, name)))
        strategy, algorithm = BULK_CASES["hipress-ps/onebit/n4"].inputs()
        trace_iteration(golden_model(), ec2_v100_cluster(4), strategy,
                        algorithm=algorithm)
    (graph,) = graphs
    csr = graph.csr
    sink_joins = [j for j in range(len(csr)) if csr.slot[j] < 0
                  and csr.succ_ptr[j] == csr.succ_ptr[j + 1]]
    assert sink_joins and len(sink_joins) == sum(
        not math.isnan(graph.joined_at[j]) for j in range(len(csr))
        if csr.slot[j] < 0)
    # Batches make the entries fewer than the completed tasks.
    assert calls["_on_complete"] < graph.num_tasks
    assert calls["nested"] == 0
    assert calls["_release"] <= (calls["_on_complete"] + calls["_on_ready"]
                                 + calls["arm"] + calls["dispatch"])


def test_failed_completion_fails_done_after_observers():
    env, engines = _world(1)
    graph = build(env, [row(0, "encode", "a", duration=1.0),
                        row(0, "merge", "b", duration=1.0, deps=[0])])
    seen = []
    graph.observers.append(
        lambda g, k: seen.append((g.recipe.labels[k], g.errors.get(k))))
    graph.on_settled.append(lambda g: seen.append(("settled", g.error)))
    boom = RuntimeError("boom")
    # Force-fail ``a`` while its kernel runs.
    env.call_later(0.5, lambda _value: graph.complete(0, boom))
    with pytest.raises(RuntimeError, match="boom"):
        run_graph(env, graph, engines)
    assert seen == [("a", boom), ("settled", boom)]
    assert graph.finished and graph.settled and graph.error is boom
    assert env.now == 0.5


#: Executor -> its task's row on node 0.  Every send moves 64 MB to node
#: 1, over the 4 MB coordinator threshold, so a bulk send flushes at once.
FORCED_EXECUTORS = {
    "comp": row(0, "encode", "t", duration=1.0),
    "cpu": row(0, "cpu", "t", duration=1.0),
    "send": row(0, "send", "t", nbytes=64 * MB, dst=1),
    "robust-send": row(0, "send", "t", nbytes=64 * MB, dst=1),
    "coordinator": row(0, "send", "t", nbytes=64 * MB, dst=1, bulk=True),
}


def _forced_round(executor, force_at):
    """Task 0 of ``executor`` runs beside a longer task on node 1, so the
    round outlives it; at ``force_at`` (if given) the fault machinery's
    way of dropping a task force-completes it: its finish instant is
    stamped and it completes.  Returns task 0's start and finish."""
    env = Environment()
    fabric = Fabric(env, 2, NetworkSpec(bandwidth_gbps=100))
    coordinator = (Coordinator(env, fabric) if executor == "coordinator"
                   else None)
    retry_policy = (RetryPolicy.aggressive() if executor == "robust-send"
                    else None)
    engines = [NodeEngine(env, i, Gpu(env, V100, i), fabric,
                          coordinator=coordinator, retry_policy=retry_policy)
               for i in range(2)]
    graph = build(env, [FORCED_EXECUTORS[executor],
                        row(1, "encode", "long", duration=10.0)])

    def force(_value):
        graph.dropped.add(0)
        graph.finished_at[0] = env.now
        graph.complete(0)

    if force_at is not None:
        env.call_later(force_at, force)
    run_graph(env, graph, engines)
    return graph.started_at[0], graph.finished_at[0]


@pytest.mark.parametrize("executor", list(FORCED_EXECUTORS))
def test_a_force_completed_task_keeps_its_executors_finish(executor):
    """A task the fault machinery completes while its executor runs it:
    the executor still finishes it, and every executor of one task
    (Q_comp, the CPU queue, an inline send with or without retries)
    restamps ``finished_at`` with its own finish instant.  A coordinator
    batch stamps only the tasks still live, so a force-completed bulk
    send keeps the instant it was forced at."""
    started, natural = _forced_round(executor, None)
    force_at = (started + natural) / 2
    assert started < force_at < natural
    assert _forced_round(executor, force_at) == (
        started, force_at if executor == "coordinator" else natural)


def test_dependents_release_in_registration_order(monkeypatch):
    """Dependents of one task reach their executor in ascending index
    order, and a duplicated edge counts twice (as it did with per-edge
    callbacks).  The order is observed where Q_comp receives each task:
    a release routes its tasks itself, without ``NodeEngine.dispatch``."""
    env, engines = _world(1)
    order = []
    put = _TaskQueue.put

    def recording(queue, k, take):
        order.append(engines[0].graph.recipe.labels[k])
        put(queue, k, take)

    monkeypatch.setattr(_TaskQueue, "put", recording)
    graph = build(env, [row(0, "encode", "root", duration=1.0),
                        row(0, "encode", "other", duration=2.0),
                        row(0, "merge", "x", duration=1.0, deps=[0, 0]),
                        row(0, "merge", "y", duration=1.0, deps=[0]),
                        row(0, "merge", "z", duration=1.0, deps=[1, 0])])
    csr = graph.csr
    assert list(csr.successors(0)) == [2, 2, 3, 4]
    assert list(csr.indegree) == [0, 0, 2, 1, 2]
    run_graph(env, graph, engines)
    assert order == ["root", "other", "x", "y", "z"]


def _stable_groups(keys, values, size):
    """The reference grouping: a stable argsort of the keys."""
    ptr = np.zeros(size + 1, dtype=np.intp)
    np.cumsum(np.bincount(keys, minlength=size), out=ptr[1:])
    return ptr.tolist(), values[np.argsort(keys, kind="stable")].tolist()


@pytest.mark.parametrize("size,edges", [(0, 0), (1, 7), (40, 300),
                                        (60_000, 98_000)])
def test_packed_sort_groups_like_a_stable_argsort(size, edges):
    """The CSR's packed ``(key, position)`` sort keeps each group in its
    original order, duplicate keys and empty groups included."""
    rng = np.random.default_rng(size + edges)
    # Even keys only: every odd key is an empty group.
    keys = 2 * rng.integers(0, max(size // 2, 1), edges)
    values = rng.integers(0, 1 << 30, edges)
    ptr, idx = SuccessorCSR._group(keys, values, size)
    want_ptr, want_idx = _stable_groups(keys, values, size)
    assert (list(ptr), list(idx)) == (want_ptr, want_idx)
    if size > 1:
        counts = np.diff(want_ptr)
        assert (counts == 0).any() and (counts > 1).any()


def test_csr_groups_rows_and_ready_refs_like_a_stable_argsort():
    # A random DAG whose rows depend on earlier rows and on ready refs,
    # with duplicated edges: both sides of the CSR match the oracle.
    rng = np.random.default_rng(11)
    rows, refs = 2000, 40
    dep_ptr, dep_rows = array("i", [0]), array("i")
    for i in range(rows):
        for _ in range(int(rng.integers(0, 5))):
            dep_rows.append(int(rng.integers(0, i)) if i and rng.random() < 0.7
                            else -1 - int(rng.integers(0, refs)))
        dep_ptr.append(len(dep_rows))
    csr = SuccessorCSR(dep_ptr, dep_rows, [(r, "g") for r in range(refs)],
                       range(rows), [])
    deps = np.asarray(dep_rows, dtype=np.intp)
    dependent = np.repeat(np.arange(rows), np.diff(np.asarray(dep_ptr)))
    on_row = deps >= 0
    assert (list(csr.succ_ptr), list(csr.succ_idx)) == _stable_groups(
        deps[on_row], dependent[on_row], rows)
    assert (list(csr.ref_ptr), list(csr.ref_idx)) == _stable_groups(
        -1 - deps[~on_row], dependent[~on_row], refs)


def test_ready_refs_are_graph_state():
    """A ready ref fires through the graph: its fire instant is recorded
    and one entry at ``(now, NORMAL)`` releases its dependents."""
    env, engines = _world(1)
    graph = build(env, [row(0, "encode", "a", duration=1.0,
                            deps=[(0, "late")]),
                        row(0, "encode", "b", duration=1.0,
                            deps=[(0, "early")]),
                        row(0, "merge", "c", duration=1.0,
                            deps=[(0, "early"), 0])])
    graph.arm(engines)
    graph.make_ready(0, "early")
    graph.make_ready(0, "late")
    with pytest.raises(SimulationError, match="already fired"):
        graph.make_ready(0, "late")
    with pytest.raises(SimulationError, match="no row depends"):
        graph.make_ready(1, "early")
    assert graph.ready_at == {(0, "early"): 0.0, (0, "late"): 0.0}
    while not graph.settled:
        env.step()
    a, b, c = graph.finished_at
    assert b == pytest.approx(1.0)
    assert a == pytest.approx(2.0)
    assert c == pytest.approx(3.0)
    assert graph.predecessors(2) == ((0, "early"), 0)


def test_ready_ref_firing_after_the_graph_finished_releases_nothing():
    """A node that restarts after its death was declared fires its ready
    refs after the round finished; they release nothing, so no join
    records an instant past the round's end."""
    env, engines = _world(1)
    graph = build(env, [row(0, "encode", "a", duration=1.0),
                        join(deps=[(1, "g")]),
                        row(0, "merge", "b", duration=1.0, deps=[1])])
    graph.arm(engines)
    graph.dropped.add(1)
    graph.complete(1)  # as the degradation controller drops it
    while not graph.settled:
        env.step()
    assert env.now == 1.0
    graph.make_ready(1, "g")
    env.run()
    assert graph.ready_at == {(1, "g"): 1.0}
    assert math.isnan(graph.joined_at[1])


def test_ready_entry_stepping_before_arm_raises():
    env, engines = _world(1)
    graph = build(env, [row(0, "encode", "a", duration=1.0,
                            deps=[(0, "g")])])
    graph.make_ready(0, "g")
    with pytest.raises(SimulationError, match="before the graph was armed"):
        env.run()


def test_run_graph_detects_deadlock():
    """A graph waiting on a ready ref that never fires cannot settle:
    ``run_graph`` raises once the agenda empties."""
    env, engines = _world(1)
    graph = build(env, [row(0, "encode", "a", duration=1.0),
                        row(0, "merge", "b", duration=1.0,
                            deps=[0, (0, "never")])])
    with pytest.raises(SimulationError, match="no more events"):
        run_graph(env, graph, engines)
    assert env.now == 1.0 and not graph.settled


def test_finished_graph_frees_without_a_collection():
    """The engines (cyclic simulation state) drop their back-reference
    once the last task completed, so a finished graph and its tasks free
    by reference counting alone."""
    model = small_model()
    cluster = ec2_v100_cluster(4)
    algo = OneBit()
    env = Environment()
    fabric = Fabric(env, cluster.num_nodes, cluster.network)
    coordinator = Coordinator(env, fabric)
    engines = [NodeEngine(env, i, Gpu(env, V100, i), fabric,
                          coordinator=coordinator)
               for i in range(cluster.num_nodes)]
    ctx = SyncContext(env=env, cluster=cluster, algorithm=algo)
    graph = get_strategy("casync-ps", bulk=True).build(ctx, model)
    for node, gradient in graph.csr.refs:
        graph.make_ready(node, gradient)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        run_graph(env, graph, engines)
        assert all(e.graph is None for e in engines)
        assert coordinator.graph is None and coordinator.batches_flushed
        ref = weakref.ref(graph)
        del graph, ctx
        assert ref() is None
    finally:
        if was_enabled:
            gc.enable()


def test_pristine_round_builds_only_ready_events_and_done(monkeypatch):
    """Every timed behaviour of a round is a plain ``[callback, value]``
    agenda entry, and the kernel has no event objects: the only signal
    events of a pristine golden round are its (node, gradient) ready
    signals and the graph's ``done`` (it settling), one entry each.  The
    design before this one built an ``Event`` object for each of these
    21 signals; the pooled-carrier design also built the 97 carriers its
    pool grew to; the generator design before it, 6 processes, 24
    stream requests, 24 kernel timeouts and the drain's ``AllOf``."""
    assert not hasattr(repro.sim, "Event")
    pushed = collections.Counter()
    original = Environment.call_later

    def counting(self, delay, callback, value=None, priority=NORMAL):
        pushed[getattr(callback, "__name__", None)] += 1
        return original(self, delay, callback, value, priority)

    monkeypatch.setattr(Environment, "call_later", counting)
    model = golden_model()
    cluster = ec2_v100_cluster(4)
    result = simulate_iteration(
        model, cluster, get_strategy("casync-ps"), algorithm=OneBit())
    assert result.coordinator_batches > 0
    assert cluster.num_nodes * len(model.gradients) == 20
    assert pushed["_on_ready"] == 20
    assert pushed["_settle"] == 1
