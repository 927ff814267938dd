"""The round owns the garbage collector.

:func:`repro.sim.gc_paused` pauses automatic collection for a round
driver's call (plan build, arming, the event loop, settling and memory
accounting) and restores the caller's collector state.  What a settled round leaves
behind must then be freed by reference counting alone: these tests run
rounds with collection disabled and check that ``gc.collect()`` finds no
``repro`` object to free, and that a faulted result's task graph dies the
moment the result is dropped.
"""

import contextlib
import gc
import weakref

import pytest

from repro.analysis.plancheck import golden_cases, golden_model
from repro.api import run_system
from repro.casync.lower import default_graph_cache
from repro.cluster import ec2_v100_cluster
from repro.faults import (DeadlineExceeded, FaultSchedule, NodeCrash,
                          NodeRestart, RetryPolicy, SyncAborted,
                          TransientSendFailure)
from repro.sim import SimulationError, gc_paused
from repro.training import simulate_iteration
from repro.training.trace import trace_iteration

GOLDEN = {case.name: case for case in golden_cases()}


@contextlib.contextmanager
def collection(enabled):
    """Run the block with automatic collection on or off, then restore."""
    before = gc.isenabled()
    gc.enable() if enabled else gc.disable()
    try:
        yield
    finally:
        gc.enable() if before else gc.disable()


def golden_round(name, driver=simulate_iteration):
    model, cluster = golden_model(), ec2_v100_cluster(4)
    strategy, algorithm = GOLDEN[name].inputs()
    return lambda: driver(model, cluster, strategy, algorithm=algorithm)


def repro_garbage(run):
    """Names of the ``repro`` types ``gc.collect()`` finds unreachable
    after ``run()``, which runs with automatic collection off."""
    gc.collect()
    with collection(False):
        run()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            gc.collect()
            found = {f"{type(o).__module__}.{type(o).__qualname__}"
                     for o in gc.garbage}
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
    return sorted(name for name in found if name.startswith("repro."))


# -- the helper ---------------------------------------------------------------

def test_pause_disables_and_restores_collection():
    with collection(True):
        with gc_paused():
            assert not gc.isenabled()
        assert gc.isenabled()


def test_pauses_nest():
    with collection(True):
        with gc_paused():
            with gc_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()  # the inner exit must not re-enable
        assert gc.isenabled()


def test_callers_disable_survives_the_pause():
    with collection(False):
        with gc_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()


@pytest.mark.parametrize("error", [
    SyncAborted("aborted", 0.0), DeadlineExceeded(1e-3, 1e-3),
    SimulationError("deadlock")], ids=lambda e: type(e).__name__)
def test_prior_state_restored_when_the_body_raises(error):
    with collection(True):
        with pytest.raises(type(error)):
            with gc_paused():
                raise error
        assert gc.isenabled()


def test_a_round_that_raises_restores_collection():
    model, cluster = golden_model(), ec2_v100_cluster(4)
    strategy, algorithm = GOLDEN["hipress-ps/onebit/n4"].inputs()
    with collection(True):
        with pytest.raises(DeadlineExceeded):
            simulate_iteration(
                model, cluster, strategy, algorithm=algorithm,
                fault_schedule=FaultSchedule.of(
                    TransientSendFailure(at=0.0, src=0, dst=1)),
                sync_deadline_s=1e-4)
        assert gc.isenabled()


def collections_during(run):
    """Generations of the automatic collections ``run()`` triggers."""
    collections = []

    def on_gc(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    with collection(True):
        gc.collect()  # start from empty generation counts
        gc.callbacks.append(on_gc)
        try:
            run()
        finally:
            gc.callbacks.remove(on_gc)
    return collections


def test_cold_round_runs_no_full_collection():
    run = golden_round("hipress-ps/onebit/n4")
    default_graph_cache().clear()
    collections = collections_during(run)
    assert 2 not in collections
    assert len(collections) <= 1  # the new recipe's one young pass


def test_warm_round_runs_no_collection():
    # Everything a warm round allocates is freed by reference counting
    # before the pause ends, so the collector has nothing to do.
    run = golden_round("hipress-ps/onebit/n4")
    run()
    assert collections_during(run) == []


# -- a settled round frees by reference counting ------------------------------

@pytest.mark.parametrize("driver", [simulate_iteration, trace_iteration],
                         ids=["simulate", "trace"])
def test_golden_round_leaves_no_cycles(driver):
    run = golden_round("hipress-ps/onebit/n4", driver)
    default_graph_cache().clear()
    assert repro_garbage(run) == []  # cold
    assert repro_garbage(run) == []  # warm


def test_bert_round_leaves_no_cycles():
    assert repro_garbage(lambda: run_system(
        "hipress-ps", "bert-large", ec2_v100_cluster(4),
        algorithm="onebit")) == []


@pytest.mark.parametrize("schedule", [
    FaultSchedule.of(TransientSendFailure(at=0.0, src=0, dst=1)),
    FaultSchedule.of(NodeCrash(at=0.003, node=3)),
    FaultSchedule.of(NodeCrash(at=0.003, node=2),
                     NodeRestart(at=0.006, node=2)),
], ids=["transient", "crash", "crash-restart"])
def test_faulted_result_frees_its_graph_when_dropped(schedule):
    model, cluster = golden_model(), ec2_v100_cluster(4)
    strategy, algorithm = GOLDEN["hipress-ps/onebit/n4"].inputs()
    with collection(False):
        result = simulate_iteration(
            model, cluster, strategy, algorithm=algorithm,
            fault_schedule=schedule, retry_policy=RetryPolicy.aggressive())
        graph = weakref.ref(result.fault_report.graph)
        assert result.fault_report.completions
        del result
        assert graph() is None
