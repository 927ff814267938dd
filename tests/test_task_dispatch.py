"""CSR dispatch: task graphs run off their successor CSR.

A task's completion is per-task state plus one agenda entry
(:meth:`TaskGraph.complete`); only the backward-pass ready events and the
graph-level ``done`` event are real :class:`~repro.sim.Event` objects.
These tests pin the allocation profile, the one-agenda-entry-per-
completion contract, and the CSR's release order.
"""

import contextlib
import gc
import weakref

import pytest

from repro.algorithms import OneBit
from repro.analysis.plancheck import golden_model
from repro.casync import Coordinator, NodeEngine, run_graph
from repro.casync.passes import PassContext, build_plan
from repro.cluster import ec2_v100_cluster
from repro.gpu import Gpu, V100
from repro.models import GradientSpec, ModelSpec
from repro.net import Fabric, NetworkSpec
from repro.sim import Environment, Event, SimulationError
from repro.strategies import get_strategy
from repro.strategies.base import SyncContext
from repro.telemetry import telemetry_session
from repro.training import simulate_iteration
from repro.training.trace import trace_hash, trace_iteration
from tests.taskgraph_rows import build, row

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


@pytest.fixture
def event_inits(monkeypatch):
    """Count every Event constructed (subclasses too)."""
    counter = [0]
    original = Event.__init__

    def counting(self, env):
        counter[0] += 1
        original(self, env)

    monkeypatch.setattr(Event, "__init__", counting)
    return counter


def test_instantiate_and_arm_allocate_per_ready_ref_not_per_task(event_inits):
    model = small_model()
    cluster = ec2_v100_cluster(4)
    algo = OneBit()
    env, engines = _world(cluster.num_nodes)
    ready = {(n, g.name): env.event() for n in range(cluster.num_nodes)
             for g in model.gradients}
    ctx = SyncContext(env=env, cluster=cluster, ready=ready, algorithm=algo)
    strategy = get_strategy("casync-ps")

    event_inits[0] = 0
    graph = strategy.build(ctx, model)
    assert event_inits[0] == 0, "instantiate must create no Event"

    csr = graph.csr
    assert len(graph.tasks) > 10 * len(ready)
    event_inits[0] = 0
    done = graph.arm(engines)
    # Only the graph-level ``done`` event: the source tasks dispatched at
    # arm are plain agenda entries, and no task gets an event.
    assert event_inits[0] == 1
    # One graph callback per ready event that something depends on.
    hooked = [ev for ev in ready.values() if ev.callbacks]
    assert len(hooked) == len(csr.refs) == len(ready)
    assert all(len(ev.callbacks) == 1 for ev in hooked)

    for ev in ready.values():
        ev.succeed()
    env.run()
    assert done.processed and done.ok
    assert all(task.triggered and task.error is None for task in graph.tasks)


@pytest.mark.parametrize("traced", [False, True],
                         ids=["bare", "telemetry"])
def test_one_agenda_entry_per_completion(traced):
    """The Environment.step count of one golden case, pinned from the
    design that gave every task its own completion Event: a completion
    still takes exactly one agenda entry per task.  An attached
    collector only records, so a traced round steps the same events.

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
    none, so the count dropped by exactly the plan's barrier count."""
    model = golden_model()
    cluster = ec2_v100_cluster(4)
    algo = OneBit()
    plan = build_plan(get_strategy("casync-ps"),
                      PassContext(num_nodes=4, cluster=cluster,
                                  algorithm=algo), model)
    barriers = sum(op.kind == "barrier" for op in plan.ops)
    assert barriers == 272
    steps = [0]
    original = Environment.step

    def counting(self):
        steps[0] += 1
        original(self)

    session = telemetry_session() if traced else contextlib.nullcontext()
    with pytest.MonkeyPatch.context() as mp, session:
        mp.setattr(Environment, "step", counting)
        trace = trace_iteration(model, cluster, get_strategy("casync-ps"),
                                algorithm=algo)
    assert trace_hash(trace).startswith("88c4e59099cd")
    assert steps[0] == 1380 - barriers


def test_completing_a_task_twice_raises():
    env, engines = _world(1)
    graph = build(env, [row(0, "encode", "a", duration=0.5)])
    task, = graph.tasks
    run_graph(env, graph, engines)
    assert task.triggered
    with pytest.raises(SimulationError, match="already been completed"):
        graph.complete(task)


def test_failed_completion_fails_done_after_observers():
    env, engines = _world(1)
    graph = build(env, [row(0, "encode", "a", duration=1.0),
                        row(0, "merge", "b", duration=1.0, deps=[0])])
    a = graph.tasks[0]
    seen = []
    graph.observers.append(lambda task: seen.append((task.label, task.error)))
    done = graph.arm(engines)
    boom = RuntimeError("boom")
    graph.complete(a, boom)  # force-fail ``a`` while its kernel runs
    with pytest.raises(RuntimeError, match="boom"):
        env.run_until_complete(done)
    assert seen == [("a", boom)]
    assert done.processed and not done.ok


def test_dependents_release_in_registration_order():
    """Dependents of one task dispatch in ascending index order, and a
    duplicated edge counts twice (as it did with per-edge callbacks)."""
    env, engines = _world(1)
    order = []
    engine = engines[0]
    real_dispatch = engine.dispatch

    def recording(task):
        order.append(task.label)
        real_dispatch(task)

    engine.dispatch = recording
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


def test_processed_ready_event_counts_as_satisfied():
    env, engines = _world(1)
    early, late = env.event(), env.event()
    early.succeed()
    env.run()  # ``early`` is processed before the graph is armed
    graph = build(env, [row(0, "encode", "a", duration=1.0, deps=["late"]),
                        row(0, "encode", "b", duration=1.0, deps=["early"]),
                        row(0, "merge", "c", duration=1.0,
                            deps=["early", 0])],
                  ready={"early": early, "late": late})
    a, b, c = graph.tasks
    graph.arm(engines)
    assert early.callbacks is None and len(late.callbacks) == 1
    late.succeed()
    env.run()
    assert b.finished_at == pytest.approx(1.0)
    assert a.finished_at == pytest.approx(2.0)
    assert c.finished_at == pytest.approx(3.0)
    assert graph.predecessors(c) == (early, a)


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
    ready = {(n, g.name): env.event() for n in range(cluster.num_nodes)
             for g in model.gradients}
    ctx = SyncContext(env=env, cluster=cluster, ready=ready, algorithm=algo)
    graph = get_strategy("casync-ps", bulk=True).build(ctx, model)
    for ev in ready.values():
        ev.succeed()
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


def test_pristine_round_builds_only_ready_events_and_done(event_inits):
    """Every timed behaviour of a round is a plain ``[callback, value]``
    agenda entry: a pristine golden round builds one ``Event`` per
    (node, gradient) ready signal and the graph's ``done``, nothing else.
    The pooled-carrier design also built the 97 carriers its pool grew
    to; the generator design before it, 6 processes, 24 stream requests,
    24 kernel timeouts and the drain's ``AllOf``."""
    model = golden_model()
    cluster = ec2_v100_cluster(4)
    event_inits[0] = 0
    result = simulate_iteration(
        model, cluster, get_strategy("casync-ps"), algorithm=OneBit())
    assert result.coordinator_batches > 0
    ready = cluster.num_nodes * len(model.gradients)
    assert ready == 20
    assert event_inits[0] == ready + 1
